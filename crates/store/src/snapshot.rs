//! Versioned binary snapshots (`.hpcsnap`) of a full [`Trace`].
//!
//! A snapshot is written once after ingest and loaded at boot with a
//! single bulk read, skipping CSV parsing and per-record validation: the
//! failure and maintenance columns are stored exactly as the in-memory
//! struct-of-arrays layout ([`crate::columns`]), so a load is a decode
//! pass plus the O(n) postings rebuild — no row structs, no sorting, no
//! text.
//!
//! # File format (version 1)
//!
//! ```text
//! magic      8 bytes  "HPCSNAP\0"
//! version    u32 LE   1
//! fingerprint u64 LE  Trace::fingerprint of the whole trace
//! sections   u32 LE   number of section-table entries
//! table      sections × { id u32, offset u64, len u64, checksum u64 }
//! ...section payloads at their recorded offsets...
//! ```
//!
//! Section ids combine a kind (high 16 bits) and a system id (low 16
//! bits). One `SYSTEMS` section carries every [`SystemConfig`]; each
//! system then contributes `FAILURES` (the five primitive columns,
//! stored column-wise), `JOBS`, `TEMPERATURES`, `MAINTENANCE` and — when
//! present — `LAYOUT` sections; one fleet-wide `NEUTRON` section closes
//! the file. Every payload is integrity-checked by an FNV-1a checksum in
//! the table, and the decoded trace must reproduce the header's content
//! fingerprint ([`Trace::fingerprint`]); the check fills the decoded
//! trace's memo, so a snapshot load hashes the content exactly once.
//!
//! # Fallback rules
//!
//! Loading never panics: any truncation, checksum mismatch, bad magic or
//! unsupported version yields a typed [`SnapshotError`].
//! [`try_read_snapshot`] additionally packages a failure as a
//! [`SnapshotFallback`] audit entry and bumps the
//! `store.snapshot.fallback` counter so callers can drop to CSV ingest
//! while recording exactly why.

use crate::columns::{FailureColumns, MaintenanceColumns};
use crate::trace::{Fnv, SystemTrace, Trace};
use hpcfail_types::prelude::*;
use std::fmt;
use std::path::{Path, PathBuf};

/// The 8-byte prefix every `.hpcsnap` stream starts with; sniffing it
/// distinguishes a binary snapshot upload from CSV text.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"HPCSNAP\0";
const MAGIC: &[u8; 8] = SNAPSHOT_MAGIC;
/// Current snapshot format version.
pub const SNAPSHOT_VERSION: u32 = 1;

const KIND_SYSTEMS: u32 = 1;
const KIND_FAILURES: u32 = 2;
const KIND_JOBS: u32 = 3;
const KIND_TEMPERATURES: u32 = 4;
const KIND_MAINTENANCE: u32 = 5;
const KIND_LAYOUT: u32 = 6;
const KIND_NEUTRON: u32 = 7;

const fn section_id(kind: u32, system: u16) -> u32 {
    (kind << 16) | system as u32
}

/// Error raised when writing or loading a snapshot fails.
#[derive(Debug)]
pub enum SnapshotError {
    /// The underlying file could not be read or written.
    Io(std::io::Error),
    /// The file does not start with the `.hpcsnap` magic bytes.
    BadMagic,
    /// The file is a snapshot, but of a version this build cannot read.
    UnsupportedVersion(u32),
    /// The file is structurally damaged: truncated, checksum mismatch,
    /// undecodable payload or inconsistent content.
    Corrupt(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "snapshot i/o error: {e}"),
            SnapshotError::BadMagic => f.write_str("not a snapshot file (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported snapshot version {v} (expected {SNAPSHOT_VERSION})"
                )
            }
            SnapshotError::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SnapshotError {
    fn from(e: std::io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<crate::columns::ColumnError> for SnapshotError {
    fn from(e: crate::columns::ColumnError) -> Self {
        SnapshotError::Corrupt(e.to_string())
    }
}

/// Typed audit entry recorded when a snapshot cannot be used and the
/// caller falls back to CSV ingest.
#[derive(Debug)]
pub struct SnapshotFallback {
    /// The snapshot that was rejected.
    pub path: PathBuf,
    /// Why it was rejected.
    pub error: SnapshotError,
}

impl fmt::Display for SnapshotFallback {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "snapshot {} unusable, falling back to CSV: {}",
            self.path.display(),
            self.error
        )
    }
}

/// Outcome of [`try_read_snapshot`]: the loaded trace, or a typed audit
/// entry explaining the CSV fallback.
#[derive(Debug)]
pub enum SnapshotLoad {
    /// The snapshot decoded and verified; boot can skip CSV entirely.
    Loaded(Box<Trace>),
    /// The snapshot is unusable; carry on with CSV ingest.
    Unusable(SnapshotFallback),
}

// ---------------------------------------------------------------------
// Byte-level encoding (little-endian, fixed width)

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8], what: &'static str) -> Self {
        Reader { buf, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.pos..end];
                self.pos = end;
                Ok(slice)
            }
            None => Err(SnapshotError::Corrupt(format!(
                "truncated {} section at byte {}",
                self.what, self.pos
            ))),
        }
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }
    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a length-prefixed count, guarding against lengths that
    /// cannot fit in the remaining bytes (`min_width` bytes per item).
    fn count(&mut self, min_width: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_width) > self.buf.len() - self.pos {
            return Err(SnapshotError::Corrupt(format!(
                "{} count {n} exceeds section size",
                self.what
            )));
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<String, SnapshotError> {
        let n = self.count(1)?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| SnapshotError::Corrupt(format!("{}: invalid utf-8 string", self.what)))
    }

    fn finish(self) -> Result<(), SnapshotError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt(format!(
                "{} section has {} trailing bytes",
                self.what,
                self.buf.len() - self.pos
            )))
        }
    }
}

// ---------------------------------------------------------------------
// Writing

fn encode_systems(trace: &Trace) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(trace.len() as u32);
    for system in trace.systems() {
        let c = system.config();
        w.u16(c.id.raw());
        w.str(&c.name);
        w.u32(c.nodes);
        w.u32(c.procs_per_node);
        w.u8(matches!(c.hardware, HardwareClass::Numa) as u8);
        w.i64(c.start.as_seconds());
        w.i64(c.end.as_seconds());
        w.u8(c.has_layout as u8);
        w.u8(c.has_job_log as u8);
        w.u8(c.has_temperature as u8);
    }
    w.buf
}

fn encode_failures(cols: &FailureColumns) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(cols.len() as u32);
    for &t in cols.times() {
        w.i64(t);
    }
    for &n in cols.nodes() {
        w.u32(n);
    }
    w.buf.extend_from_slice(cols.roots());
    for &s in cols.subs() {
        w.u16(s);
    }
    for &d in cols.downtimes() {
        w.i64(d);
    }
    w.buf
}

fn encode_jobs(jobs: &[JobRecord]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(jobs.len() as u32);
    for j in jobs {
        w.u64(j.job_id.raw());
        w.u32(j.user.raw());
        w.i64(j.submit.as_seconds());
        w.i64(j.dispatch.as_seconds());
        w.i64(j.end.as_seconds());
        w.u32(j.procs);
        w.u32(j.nodes.len() as u32);
        for n in &j.nodes {
            w.u32(n.raw());
        }
    }
    w.buf
}

fn encode_temperatures(samples: &[TemperatureSample]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(samples.len() as u32);
    for s in samples {
        w.u32(s.node.raw());
    }
    for s in samples {
        w.i64(s.time.as_seconds());
    }
    for s in samples {
        w.f64(s.celsius);
    }
    w.buf
}

fn encode_maintenance(records: &[MaintenanceRecord]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(records.len() as u32);
    for m in records {
        w.u32(m.node.raw());
    }
    for m in records {
        w.i64(m.time.as_seconds());
    }
    for m in records {
        w.u8(((m.hardware_related as u8) << 1) | m.scheduled as u8);
    }
    w.buf
}

fn encode_layout(layout: &MachineLayout) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(layout.len() as u32);
    for (node, loc) in layout.iter() {
        w.u32(node.raw());
        w.u16(loc.rack.raw());
        w.u8(loc.position_in_rack);
        w.u16(loc.room_row);
        w.u16(loc.room_col);
    }
    w.buf
}

fn encode_neutron(samples: &[NeutronSample]) -> Vec<u8> {
    let mut w = Writer::default();
    w.u32(samples.len() as u32);
    for s in samples {
        w.i64(s.time.as_seconds());
    }
    for s in samples {
        w.f64(s.counts_per_minute);
    }
    w.buf
}

/// Serializes the trace into the `.hpcsnap` byte format.
pub fn snapshot_bytes(trace: &Trace) -> Vec<u8> {
    let mut sections: Vec<(u32, Vec<u8>)> =
        vec![(section_id(KIND_SYSTEMS, 0), encode_systems(trace))];
    for system in trace.systems() {
        let sys = system.id().raw();
        sections.push((
            section_id(KIND_FAILURES, sys),
            encode_failures(system.failure_columns()),
        ));
        sections.push((section_id(KIND_JOBS, sys), encode_jobs(system.jobs())));
        sections.push((
            section_id(KIND_TEMPERATURES, sys),
            encode_temperatures(system.temperatures()),
        ));
        sections.push((
            section_id(KIND_MAINTENANCE, sys),
            encode_maintenance(&system.maintenance().collect::<Vec<_>>()),
        ));
        if let Some(layout) = system.layout() {
            sections.push((section_id(KIND_LAYOUT, sys), encode_layout(layout)));
        }
    }
    sections.push((
        section_id(KIND_NEUTRON, 0),
        encode_neutron(trace.neutron_samples()),
    ));

    let header_len = MAGIC.len() + 4 + 8 + 4 + sections.len() * (4 + 8 + 8 + 8);
    let mut out =
        Vec::with_capacity(header_len + sections.iter().map(|(_, b)| b.len()).sum::<usize>());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&trace.fingerprint().to_le_bytes());
    out.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    let mut offset = header_len as u64;
    for (id, bytes) in &sections {
        out.extend_from_slice(&id.to_le_bytes());
        out.extend_from_slice(&offset.to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a(bytes).to_le_bytes());
        offset += bytes.len() as u64;
    }
    for (_, bytes) in &sections {
        out.extend_from_slice(bytes);
    }
    out
}

/// Writes a snapshot of `trace` to `path`.
///
/// # Errors
///
/// [`SnapshotError::Io`] when the file cannot be written.
pub fn write_snapshot<P: AsRef<Path>>(path: P, trace: &Trace) -> Result<(), SnapshotError> {
    let _span = hpcfail_obs::span("store.snapshot.write");
    let bytes = snapshot_bytes(trace);
    hpcfail_obs::counter("store.snapshot.bytes_written").add(bytes.len() as u64);
    std::fs::write(path, bytes)?;
    Ok(())
}

// ---------------------------------------------------------------------
// Loading

struct Section<'a> {
    bytes: &'a [u8],
}

/// Validates the header and section table; returns the header's content
/// fingerprint and every checksum-verified section.
fn parse_sections(buf: &[u8]) -> Result<(u64, Vec<(u32, Section<'_>)>), SnapshotError> {
    if buf.len() < MAGIC.len() {
        return Err(SnapshotError::BadMagic);
    }
    if &buf[..MAGIC.len()] != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let mut r = Reader::new(&buf[MAGIC.len()..], "header");
    let version = r.u32()?;
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let fingerprint = r.u64()?;
    let count = r.count(28)?;
    let mut sections = Vec::with_capacity(count);
    for _ in 0..count {
        let id = r.u32()?;
        let offset = r.u64()? as usize;
        let len = r.u64()? as usize;
        let checksum = r.u64()?;
        let end = offset.checked_add(len).filter(|&e| e <= buf.len());
        let Some(end) = end else {
            return Err(SnapshotError::Corrupt(format!(
                "section {id:#x} range {offset}+{len} exceeds file size {}",
                buf.len()
            )));
        };
        let bytes = &buf[offset..end];
        if fnv1a(bytes) != checksum {
            return Err(SnapshotError::Corrupt(format!(
                "section {id:#x} checksum mismatch"
            )));
        }
        sections.push((id, Section { bytes }));
    }
    Ok((fingerprint, sections))
}

fn decode_systems(bytes: &[u8]) -> Result<Vec<SystemConfig>, SnapshotError> {
    let mut r = Reader::new(bytes, "systems");
    let count = r.count(31)?;
    let mut configs = Vec::with_capacity(count);
    for _ in 0..count {
        let id = SystemId::new(r.u16()?);
        let name = r.str()?;
        let nodes = r.u32()?;
        let procs_per_node = r.u32()?;
        let hardware = match r.u8()? {
            0 => HardwareClass::Smp4Way,
            1 => HardwareClass::Numa,
            other => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown hardware class code {other} for {id}"
                )))
            }
        };
        let start = Timestamp::from_seconds(r.i64()?);
        let end = Timestamp::from_seconds(r.i64()?);
        let has_layout = r.u8()? != 0;
        let has_job_log = r.u8()? != 0;
        let has_temperature = r.u8()? != 0;
        configs.push(SystemConfig {
            id,
            name,
            nodes,
            procs_per_node,
            hardware,
            start,
            end,
            has_layout,
            has_job_log,
            has_temperature,
        });
    }
    r.finish()?;
    Ok(configs)
}

fn decode_failures(bytes: &[u8], config: &SystemConfig) -> Result<FailureColumns, SnapshotError> {
    let mut r = Reader::new(bytes, "failures");
    let count = r.count(8 + 4 + 1 + 2 + 8)?;
    let mut times = Vec::with_capacity(count);
    for _ in 0..count {
        times.push(r.i64()?);
    }
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        nodes.push(r.u32()?);
    }
    let roots = r.take(count)?.to_vec();
    let mut subs = Vec::with_capacity(count);
    for _ in 0..count {
        subs.push(r.u16()?);
    }
    let mut downtimes = Vec::with_capacity(count);
    for _ in 0..count {
        downtimes.push(r.i64()?);
    }
    r.finish()?;
    Ok(FailureColumns::from_raw_parts(
        times,
        nodes,
        roots,
        subs,
        downtimes,
        config.nodes,
        config.start,
    )?)
}

fn decode_jobs(bytes: &[u8], config: &SystemConfig) -> Result<Vec<JobRecord>, SnapshotError> {
    let mut r = Reader::new(bytes, "jobs");
    let count = r.count(8 + 4 + 8 + 8 + 8 + 4 + 4)?;
    let mut jobs: Vec<JobRecord> = Vec::with_capacity(count);
    for _ in 0..count {
        let job_id = JobId::new(r.u64()?);
        let user = UserId::new(r.u32()?);
        let submit = Timestamp::from_seconds(r.i64()?);
        let dispatch = Timestamp::from_seconds(r.i64()?);
        let end = Timestamp::from_seconds(r.i64()?);
        let procs = r.u32()?;
        let node_count = r.count(4)?;
        let mut nodes = Vec::with_capacity(node_count);
        for _ in 0..node_count {
            nodes.push(NodeId::new(r.u32()?));
        }
        if let Some(prev) = jobs.last() {
            if prev.dispatch > dispatch {
                return Err(SnapshotError::Corrupt(
                    "jobs not sorted by dispatch time".into(),
                ));
            }
        }
        jobs.push(JobRecord {
            system: config.id,
            job_id,
            user,
            submit,
            dispatch,
            end,
            procs,
            nodes,
        });
    }
    r.finish()?;
    Ok(jobs)
}

fn decode_temperatures(
    bytes: &[u8],
    config: &SystemConfig,
) -> Result<Vec<TemperatureSample>, SnapshotError> {
    let mut r = Reader::new(bytes, "temperatures");
    let count = r.count(4 + 8 + 8)?;
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        nodes.push(r.u32()?);
    }
    let mut times = Vec::with_capacity(count);
    for _ in 0..count {
        times.push(r.i64()?);
    }
    if times.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt(
            "temperature samples not sorted by time".into(),
        ));
    }
    let mut samples = Vec::with_capacity(count);
    for i in 0..count {
        samples.push(TemperatureSample {
            system: config.id,
            node: NodeId::new(nodes[i]),
            time: Timestamp::from_seconds(times[i]),
            celsius: r.f64()?,
        });
    }
    r.finish()?;
    Ok(samples)
}

fn decode_maintenance(
    bytes: &[u8],
    config: &SystemConfig,
) -> Result<MaintenanceColumns, SnapshotError> {
    let mut r = Reader::new(bytes, "maintenance");
    let count = r.count(4 + 8 + 1)?;
    let mut nodes = Vec::with_capacity(count);
    for _ in 0..count {
        nodes.push(r.u32()?);
    }
    let mut times = Vec::with_capacity(count);
    for _ in 0..count {
        times.push(r.i64()?);
    }
    let mut hardware = Vec::with_capacity(count);
    let mut scheduled = Vec::with_capacity(count);
    for _ in 0..count {
        let flags = r.u8()?;
        hardware.push(flags & 0b10 != 0);
        scheduled.push(flags & 0b01 != 0);
    }
    r.finish()?;
    Ok(MaintenanceColumns::from_raw_parts(
        times,
        nodes,
        hardware,
        scheduled,
        config.nodes,
        config.start,
    )?)
}

fn decode_layout(bytes: &[u8]) -> Result<MachineLayout, SnapshotError> {
    let mut r = Reader::new(bytes, "layout");
    let count = r.count(4 + 2 + 1 + 2 + 2)?;
    let mut layout = MachineLayout::new();
    for _ in 0..count {
        let node = NodeId::new(r.u32()?);
        let rack = RackId::new(r.u16()?);
        let position_in_rack = r.u8()?;
        let room_row = r.u16()?;
        let room_col = r.u16()?;
        layout.place(
            node,
            NodeLocation {
                rack,
                position_in_rack,
                room_row,
                room_col,
            },
        );
    }
    r.finish()?;
    Ok(layout)
}

fn decode_neutron(bytes: &[u8]) -> Result<Vec<NeutronSample>, SnapshotError> {
    let mut r = Reader::new(bytes, "neutron");
    let count = r.count(8 + 8)?;
    let mut times = Vec::with_capacity(count);
    for _ in 0..count {
        times.push(r.i64()?);
    }
    let mut samples = Vec::with_capacity(count);
    for &time in &times {
        samples.push(NeutronSample {
            time: Timestamp::from_seconds(time),
            counts_per_minute: r.f64()?,
        });
    }
    r.finish()?;
    Ok(samples)
}

/// Decodes a trace from snapshot bytes.
///
/// # Errors
///
/// Any structural damage — bad magic, unsupported version, out-of-range
/// section, checksum or fingerprint mismatch, undecodable payload —
/// yields a typed [`SnapshotError`]; this function never panics on
/// hostile input.
pub fn decode_snapshot(buf: &[u8]) -> Result<Trace, SnapshotError> {
    let (expected, sections) = parse_sections(buf)?;
    let find = |id: u32| sections.iter().find(|(sid, _)| *sid == id).map(|(_, s)| s);

    let systems_section = find(section_id(KIND_SYSTEMS, 0))
        .ok_or_else(|| SnapshotError::Corrupt("missing systems section".into()))?;
    let configs = decode_systems(systems_section.bytes)?;

    let mut trace = Trace::new();
    for config in configs {
        let sys = config.id.raw();
        let failures = find(section_id(KIND_FAILURES, sys)).ok_or_else(|| {
            SnapshotError::Corrupt(format!("missing failures section for {}", config.id))
        })?;
        let columns = decode_failures(failures.bytes, &config)?;
        let jobs = match find(section_id(KIND_JOBS, sys)) {
            Some(s) => decode_jobs(s.bytes, &config)?,
            None => Vec::new(),
        };
        let temperatures = match find(section_id(KIND_TEMPERATURES, sys)) {
            Some(s) => decode_temperatures(s.bytes, &config)?,
            None => Vec::new(),
        };
        let maintenance = match find(section_id(KIND_MAINTENANCE, sys)) {
            Some(s) => decode_maintenance(s.bytes, &config)?,
            None => MaintenanceColumns::default(),
        };
        let layout = match find(section_id(KIND_LAYOUT, sys)) {
            Some(s) => Some(decode_layout(s.bytes)?),
            None => None,
        };
        trace.insert_system(SystemTrace::from_parts(
            config,
            columns,
            jobs,
            temperatures,
            maintenance,
            layout,
        ));
    }
    if let Some(s) = find(section_id(KIND_NEUTRON, 0)) {
        let samples = decode_neutron(s.bytes)?;
        trace.set_neutron_samples(samples);
    }

    let actual = trace.fingerprint();
    if expected != actual {
        return Err(SnapshotError::Corrupt(format!(
            "content fingerprint mismatch: header {expected:016x}, decoded {actual:016x}"
        )));
    }
    Ok(trace)
}

/// Loads a trace from a snapshot file with a single bulk read.
///
/// # Errors
///
/// [`SnapshotError`] on I/O failure or any structural damage; see
/// [`decode_snapshot`].
pub fn read_snapshot<P: AsRef<Path>>(path: P) -> Result<Trace, SnapshotError> {
    let _span = hpcfail_obs::span("store.snapshot.load");
    let buf = std::fs::read(path)?;
    hpcfail_obs::counter("store.snapshot.bytes_read").add(buf.len() as u64);
    let trace = decode_snapshot(&buf)?;
    hpcfail_obs::counter("store.snapshot.loaded").inc();
    Ok(trace)
}

/// Loads a snapshot, converting any failure into a typed
/// [`SnapshotFallback`] audit entry (and bumping the
/// `store.snapshot.fallback` counter) instead of an error, so boot paths
/// can drop to CSV ingest without panicking.
pub fn try_read_snapshot<P: AsRef<Path>>(path: P) -> SnapshotLoad {
    let path = path.as_ref();
    match read_snapshot(path) {
        Ok(trace) => SnapshotLoad::Loaded(Box::new(trace)),
        Err(error) => {
            hpcfail_obs::counter("store.snapshot.fallback").inc();
            SnapshotLoad::Unusable(SnapshotFallback {
                path: path.to_path_buf(),
                error,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::SystemTraceBuilder;

    fn sample_trace() -> Trace {
        let config = SystemConfig {
            id: SystemId::new(3),
            name: "snap-test".into(),
            nodes: 6,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(30.0),
            has_layout: true,
            has_job_log: true,
            has_temperature: true,
        };
        let sys = config.id;
        let mut b = SystemTraceBuilder::new(config);
        b.push_failure(
            FailureRecord::new(
                sys,
                NodeId::new(2),
                Timestamp::from_days(3.5),
                RootCause::Hardware,
                SubCause::Hardware(HardwareComponent::MemoryDimm),
            )
            .with_downtime(Duration::from_hours(2.0)),
        );
        b.push_failure(FailureRecord::new(
            sys,
            NodeId::new(0),
            Timestamp::from_days(10.0),
            RootCause::Software,
            SubCause::Software(SoftwareCause::Pfs),
        ));
        b.push_job(JobRecord {
            system: sys,
            job_id: JobId::new(11),
            user: UserId::new(4),
            submit: Timestamp::from_days(1.0),
            dispatch: Timestamp::from_days(1.25),
            end: Timestamp::from_days(2.0),
            procs: 8,
            nodes: vec![NodeId::new(1), NodeId::new(2)],
        });
        b.push_temperature(TemperatureSample {
            system: sys,
            node: NodeId::new(2),
            time: Timestamp::from_days(5.0),
            celsius: 41.5,
        });
        b.push_maintenance(MaintenanceRecord {
            system: sys,
            node: NodeId::new(3),
            time: Timestamp::from_days(8.0),
            hardware_related: true,
            scheduled: false,
        });
        b.layout(
            (0..6u32)
                .map(|n| {
                    (
                        NodeId::new(n),
                        NodeLocation {
                            rack: RackId::new((n / 3) as u16),
                            position_in_rack: (n % 3 + 1) as u8,
                            room_row: 0,
                            room_col: (n / 3) as u16,
                        },
                    )
                })
                .collect(),
        );
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace.set_neutron_samples(vec![
            NeutronSample {
                time: Timestamp::from_days(1.0),
                counts_per_minute: 4100.0,
            },
            NeutronSample {
                time: Timestamp::from_days(15.0),
                counts_per_minute: 4350.5,
            },
        ]);
        trace
    }

    fn traces_equal(a: &Trace, b: &Trace) {
        assert_eq!(a.len(), b.len());
        assert_eq!(a.neutron_samples(), b.neutron_samples());
        for (sa, sb) in a.systems().zip(b.systems()) {
            assert_eq!(sa.config(), sb.config());
            assert!(sa.failures().eq(sb.failures()));
            assert_eq!(sa.jobs(), sb.jobs());
            assert_eq!(sa.temperatures(), sb.temperatures());
            assert!(sa.maintenance().eq(sb.maintenance()));
            assert_eq!(sa.layout(), sb.layout());
        }
    }

    #[test]
    fn round_trip_preserves_everything() {
        let trace = sample_trace();
        let bytes = snapshot_bytes(&trace);
        let decoded = decode_snapshot(&bytes).expect("decodes");
        traces_equal(&trace, &decoded);
        assert_eq!(trace.fingerprint(), decoded.fingerprint());
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let trace = sample_trace();
        let mut bytes = snapshot_bytes(&trace);
        assert!(matches!(
            decode_snapshot(b"not a snapshot"),
            Err(SnapshotError::BadMagic)
        ));
        assert!(matches!(decode_snapshot(&[]), Err(SnapshotError::BadMagic)));
        // Bump the version field (right after the magic).
        bytes[8] = 0xfe;
        assert!(matches!(
            decode_snapshot(&bytes),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn every_single_byte_flip_is_rejected_or_benign() {
        // Flipping any byte must never panic, and when the decode
        // succeeds anyway the content fingerprint must still match
        // (i.e. silent corruption is impossible).
        let trace = sample_trace();
        let bytes = snapshot_bytes(&trace);
        let original = trace.fingerprint();
        let mut rejected = 0usize;
        for i in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[i] ^= 0xa5;
            match decode_snapshot(&mutated) {
                Err(_) => rejected += 1,
                Ok(decoded) => {
                    assert_eq!(
                        decoded.fingerprint(),
                        original,
                        "silent corruption after flipping byte {i}"
                    );
                }
            }
        }
        // The checksums make essentially every flip detectable.
        assert!(
            rejected >= bytes.len() - 1,
            "only {rejected}/{} flips rejected",
            bytes.len()
        );
    }

    #[test]
    fn truncation_at_any_length_is_rejected_without_panic() {
        let trace = sample_trace();
        let bytes = snapshot_bytes(&trace);
        for len in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..len]).is_err(),
                "truncation to {len} bytes accepted"
            );
        }
    }

    #[test]
    fn file_round_trip_and_typed_fallback() {
        let trace = sample_trace();
        let dir = std::env::temp_dir().join(format!("hpcsnap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.hpcsnap");
        write_snapshot(&path, &trace).expect("writes");
        let loaded = read_snapshot(&path).expect("reads");
        traces_equal(&trace, &loaded);
        match try_read_snapshot(&path) {
            SnapshotLoad::Loaded(t) => traces_equal(&trace, &t),
            SnapshotLoad::Unusable(f) => panic!("unexpected fallback: {f}"),
        }

        // A missing file becomes a typed audit entry, not a panic.
        match try_read_snapshot(dir.join("missing.hpcsnap")) {
            SnapshotLoad::Unusable(f) => {
                assert!(matches!(f.error, SnapshotError::Io(_)));
                assert!(f.to_string().contains("falling back to CSV"));
            }
            SnapshotLoad::Loaded(_) => panic!("loaded a missing file"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_trace_round_trips() {
        let trace = Trace::new();
        let bytes = snapshot_bytes(&trace);
        let decoded = decode_snapshot(&bytes).expect("decodes");
        assert!(decoded.is_empty());
        assert_eq!(trace.fingerprint(), decoded.fingerprint());
    }
}
