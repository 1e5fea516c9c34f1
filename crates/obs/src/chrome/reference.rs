//! The reference exporter: the line-by-line writer this module's exporter
//! replaced, kept to check the rewrite byte for byte. Test-only: the
//! differential proptest in `chrome.rs` compares the two on random event
//! and sample streams. It differs from the original in one respect, the
//! NoC thread ids, which both exporters now number by class index.

use pbm_types::{EpochPhase, EpochTag, MetricSample, NodeId, TraceEvent, TraceEventKind};
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write};

use super::{
    COUNTERS, LANE_STRIDE, PID_BANKS, PID_EVENTS, PID_EXEC, PID_MC, PID_NOC, PID_PERSIST,
    PID_STALLS,
};

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

/// What one output line renders. Variant order is emission order, so
/// sorting records by `(ts, source)` is a stable sort by `ts`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Source {
    /// An epoch's execution span; indexes the lifecycles.
    Exec(u32),
    /// An epoch's persist-pipeline span; indexes the lifecycles.
    Persist(u32),
    /// A stream event; indexes the events.
    Event(u32),
    /// `sample * 3 + counter`; indexes the samples and [`COUNTERS`].
    Counter(u32),
}

/// One output line of the index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Record {
    ts: u64,
    source: Source,
}

fn index(i: usize) -> u32 {
    u32::try_from(i).expect("a trace holds fewer than 2^32 records")
}

/// The pre-scan's result: everything the write pass needs besides the
/// events and samples themselves.
#[derive(Debug, Default)]
struct Layout {
    /// Epoch lifecycles in `(core, epoch)` order.
    lives: Vec<(EpochTag, EpochLife)>,
    last_cycle: u64,
    records: Vec<Record>,
    exec_cores: BTreeSet<u32>,
    persist_tids: BTreeSet<(u32, u64)>,
    stall_cores: BTreeSet<u32>,
    event_cores: BTreeSet<u32>,
    bank_tids: BTreeSet<u32>,
    /// NoC classes seen, keyed by class index.
    noc_vnets: BTreeMap<usize, &'static str>,
}

impl Layout {
    fn scan(events: &[TraceEvent], samples: &[MetricSample]) -> Layout {
        let mut layout = Layout::default();
        // Keyed (core, epoch) in BTree order so lane assignment and span
        // order are deterministic.
        let mut lives: BTreeMap<EpochTag, EpochLife> = BTreeMap::new();
        for (i, ev) in events.iter().enumerate() {
            let ts = ev.cycle.as_u64();
            layout.last_cycle = layout.last_cycle.max(ts);
            // Where this event's output line sorts, if it renders one.
            let line_ts = match ev.kind {
                TraceEventKind::EpochPhase { tag, phase } => {
                    let life = lives.entry(tag).or_default();
                    let slot = match phase {
                        EpochPhase::Ongoing => &mut life.ongoing_at,
                        EpochPhase::Completed => &mut life.completed_at,
                        EpochPhase::Flushing => &mut life.flushing_at,
                        EpochPhase::Persisted => &mut life.persisted_at,
                    };
                    slot.get_or_insert(ts);
                    None
                }
                TraceEventKind::FlushEpoch { tag, reason } => {
                    lives
                        .entry(tag)
                        .or_default()
                        .reason
                        .get_or_insert(reason.name());
                    layout.event_cores.insert(tag.core.as_u32());
                    Some(ts)
                }
                TraceEventKind::FlushRequested { tag, .. } | TraceEventKind::PersistCmp { tag } => {
                    layout.event_cores.insert(tag.core.as_u32());
                    Some(ts)
                }
                TraceEventKind::IdtRecord { dependent, .. }
                | TraceEventKind::IdtOverflow { dependent, .. }
                | TraceEventKind::ConflictInter { dependent, .. } => {
                    layout.event_cores.insert(dependent.core.as_u32());
                    Some(ts)
                }
                TraceEventKind::DeadlockSplit { core, .. }
                | TraceEventKind::ConflictIntra { core, .. } => {
                    layout.event_cores.insert(core.as_u32());
                    Some(ts)
                }
                TraceEventKind::BankFlushStart { bank, .. }
                | TraceEventKind::BankAck { bank, .. } => {
                    layout.bank_tids.insert(bank.as_u32());
                    Some(ts)
                }
                TraceEventKind::PersistWrite { .. } => {
                    // One event per flushed line — too dense for a viewer
                    // track. pbm-prof reads these from the in-memory event
                    // stream instead.
                    None
                }
                TraceEventKind::StallBegin { .. } => {
                    // The matching StallEnd carries the duration; the span
                    // is emitted there.
                    None
                }
                TraceEventKind::StallEnd { core, waited, .. } => {
                    layout.stall_cores.insert(core.as_u32());
                    Some(ts.saturating_sub(waited.as_u64()))
                }
                TraceEventKind::NocSend { class, .. } => {
                    layout.noc_vnets.insert(class as usize, class.name());
                    Some(ts)
                }
            };
            if let Some(ts) = line_ts {
                layout.records.push(Record {
                    ts,
                    source: Source::Event(index(i)),
                });
            }
        }

        // Execution spans, and persist-pipeline spans packed onto per-core
        // lanes so no track holds overlapping slices.
        let mut lanes: BTreeMap<u32, Vec<u64>> = BTreeMap::new(); // core -> lane busy-until
        layout.lives = lives.into_iter().collect();
        for (i, (tag, life)) in layout.lives.iter_mut().enumerate() {
            let core = tag.core.as_u32();
            if let Some(start) = life.ongoing_at {
                layout.exec_cores.insert(core);
                layout.records.push(Record {
                    ts: start,
                    source: Source::Exec(index(i)),
                });
            }
            let Some(start) = life.completed_at.or(life.flushing_at) else {
                continue;
            };
            let end = life.persisted_at.unwrap_or(layout.last_cycle);
            let lanes = lanes.entry(core).or_default();
            let lane = match lanes.iter().position(|&busy_until| busy_until <= start) {
                Some(free) => free,
                None => {
                    lanes.push(0);
                    lanes.len() - 1
                }
            };
            lanes[lane] = end.max(start + 1);
            life.lane = lane as u64;
            layout.persist_tids.insert((core, life.lane));
            layout.records.push(Record {
                ts: start,
                source: Source::Persist(index(i)),
            });
        }

        for (i, sample) in samples.iter().enumerate() {
            for c in 0..COUNTERS.len() {
                layout.records.push(Record {
                    ts: sample.cycle.as_u64(),
                    source: Source::Counter(index(i * COUNTERS.len() + c)),
                });
            }
        }
        layout.records.sort_unstable();
        layout
    }
}

/// The output stream. Each line is assembled in `line` by the chained
/// methods below and handed to `out` with one `write_all`: at millions of
/// lines, `fmt`'s machinery would cost more than the bytes themselves.
struct Writer<W> {
    out: W,
    line: Vec<u8>,
    first: bool,
}

impl<W: Write> Writer<W> {
    /// Opens a line up to the `name` value, whose text follows.
    fn open(&mut self) -> &mut Self {
        self.line.clear();
        if !std::mem::take(&mut self.first) {
            self.line.extend_from_slice(b",\n");
        }
        self.text("{\"name\":\"")
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
    fn key(&mut self, key: &str) -> &mut Self {
        if self.line.last() != Some(&b'{') {
            self.line.push(b',');
        }
        self.text("\"").text(key).text("\":")
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

    /// Closes `args` and the object, and writes the line.
    fn close(&mut self) -> io::Result<()> {
        self.text("}}");
        self.out.write_all(&self.line)
    }

    fn text(&mut self, text: &str) -> &mut Self {
        self.line.extend_from_slice(text.as_bytes());
        self
    }

    /// `n` in decimal, as `Display` writes it.
    fn num(&mut self, mut n: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (n % 10) as u8;
            n /= 10;
            if n == 0 {
                break;
            }
        }
        self.line.extend_from_slice(&digits[at..]);
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
                .instant(ts, PID_NOC, class as u64)
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

/// The reference [`write_chrome_trace`](super::write_chrome_trace).
pub fn write_chrome_trace(
    out: impl Write,
    events: &[TraceEvent],
    samples: &[MetricSample],
) -> io::Result<()> {
    let layout = Layout::scan(events, samples);
    let mut w = Writer {
        out,
        line: Vec::with_capacity(256),
        first: true,
    };
    w.out.write_all(b"{\"traceEvents\":[\n")?;

    // Track naming metadata, ahead of the content.
    let cores = |set: &BTreeSet<u32>| -> Vec<(u64, String)> {
        set.iter()
            .map(|&c| (u64::from(c), format!("C{c}")))
            .collect()
    };
    let persist: Vec<_> = layout
        .persist_tids
        .iter()
        .map(|&(c, l)| (u64::from(c) * LANE_STRIDE + l, format!("C{c} lane{l}")))
        .collect();
    let banks: Vec<_> = layout
        .bank_tids
        .iter()
        .map(|&b| (u64::from(b), format!("B{b}")))
        .collect();
    let vnets: Vec<_> = layout
        .noc_vnets
        .iter()
        .map(|(&i, v)| (i as u64, format!("vnet {v}")))
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
        let ts = record.ts;
        match record.source {
            Source::Exec(i) => {
                let (tag, life) = &layout.lives[i as usize];
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
            Source::Persist(i) => {
                let (tag, life) = &layout.lives[i as usize];
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
            Source::Event(i) => w.event(&events[i as usize])?,
            Source::Counter(i) => {
                let (sample, counter) = (i as usize / COUNTERS.len(), i as usize % COUNTERS.len());
                let sample = &samples[sample];
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
    w.out.write_all(b"\n]}\n")?;
    w.out.flush()
}
