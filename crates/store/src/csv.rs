//! LANL-style CSV ingest and export.
//!
//! The public LANL release ships comma-separated record files; this
//! module reads and writes an equivalent schema so real or synthetic
//! traces can round-trip through plain files:
//!
//! | file | columns |
//! |---|---|
//! | `systems.csv` | `id,name,nodes,procs_per_node,hardware,start,end,has_layout,has_job_log,has_temperature` |
//! | `failures.csv` | `system,node,time,root_cause,sub_cause,downtime` |
//! | `jobs.csv` | `system,job_id,user,submit,dispatch,end,procs,nodes` (nodes `;`-separated) |
//! | `temperatures.csv` | `system,node,time,celsius` |
//! | `maintenance.csv` | `system,node,time,hardware_related,scheduled` |
//! | `neutron.csv` | `time,counts_per_minute` |
//! | `layout.csv` | `system,node,rack,position_in_rack,room_row,room_col` |
//!
//! Sub-causes are namespaced (`HW:CPU`, `SW:DST`, `ENV:UPS`, `-`).
//! All timestamps are integer seconds since the trace epoch.

use crate::trace::{SystemTrace, Trace};
use hpcfail_types::prelude::*;
use std::borrow::Borrow;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

/// Expected header lines, shared by writers and readers. A reader
/// skips line 1 only when it matches its header exactly; anything else
/// is parsed as data, so a headerless export keeps its first record and
/// a malformed header surfaces as a parse error at line 1.
pub mod headers {
    /// `failures.csv` header.
    pub const FAILURES: &str = "system,node,time,root_cause,sub_cause,downtime";
    /// `jobs.csv` header.
    pub const JOBS: &str = "system,job_id,user,submit,dispatch,end,procs,nodes";
    /// `temperatures.csv` header.
    pub const TEMPERATURES: &str = "system,node,time,celsius";
    /// `maintenance.csv` header.
    pub const MAINTENANCE: &str = "system,node,time,hardware_related,scheduled";
    /// `neutron.csv` header.
    pub const NEUTRON: &str = "time,counts_per_minute";
    /// `layout.csv` header (repeated mid-file for concatenated systems).
    pub const LAYOUT: &str = "system,node,rack,position_in_rack,room_row,room_col";
    /// `systems.csv` header.
    pub const SYSTEMS: &str =
        "id,name,nodes,procs_per_node,hardware,start,end,has_layout,has_job_log,has_temperature";
}

/// True for lines a reader should skip: blank lines anywhere, and the
/// expected header on line 1 (`idx` is the 0-based line index).
fn skip_line(line: &str, idx: usize, header: &str) -> bool {
    line.is_empty() || (idx == 0 && line == header)
}

/// Errors from CSV reading or writing.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// An error with the source file attached, so a "line 12" from a
    /// directory load says which of the CSVs it came from.
    InFile {
        /// File name (or path) the error came from.
        file: String,
        /// The underlying error.
        source: Box<CsvError>,
    },
}

impl CsvError {
    /// Attaches a file name to this error. Wrapping an already
    /// file-qualified error keeps the innermost (most specific) file.
    #[must_use]
    pub fn in_file(self, file: impl Into<String>) -> CsvError {
        match self {
            CsvError::InFile { .. } => self,
            other => CsvError::InFile {
                file: file.into(),
                source: Box::new(other),
            },
        }
    }
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error: {e}"),
            CsvError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            CsvError::InFile { file, source } => write!(f, "{file}: {source}"),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Parse { .. } => None,
            CsvError::InFile { source, .. } => Some(source),
        }
    }
}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

/// Parses one CSV line into typed fields with line-number context.
struct Fields<'a> {
    parts: Vec<&'a str>,
    line: usize,
    cursor: usize,
}

impl<'a> Fields<'a> {
    fn new(s: &'a str, line: usize, expected: usize) -> Result<Self, CsvError> {
        let parts: Vec<&str> = s.split(',').collect();
        if parts.len() != expected {
            return Err(CsvError::Parse {
                line,
                message: format!("expected {expected} fields, found {}", parts.len()),
            });
        }
        Ok(Fields {
            parts,
            line,
            cursor: 0,
        })
    }

    fn next_str(&mut self) -> &'a str {
        let s = self.parts[self.cursor];
        self.cursor += 1;
        s
    }

    fn next<T: std::str::FromStr>(&mut self, what: &str) -> Result<T, CsvError>
    where
        T::Err: fmt::Display,
    {
        let raw = self.next_str();
        raw.parse().map_err(|e| CsvError::Parse {
            line: self.line,
            message: format!("bad {what} {raw:?}: {e}"),
        })
    }
}

fn sub_cause_label(sub: SubCause) -> String {
    match sub {
        SubCause::None => "-".to_owned(),
        SubCause::Hardware(c) => format!("HW:{}", c.label()),
        SubCause::Software(c) => format!("SW:{}", c.label()),
        SubCause::Environment(c) => format!("ENV:{}", c.label()),
    }
}

fn parse_sub_cause(raw: &str, line: usize) -> Result<SubCause, CsvError> {
    if raw == "-" || raw.is_empty() {
        return Ok(SubCause::None);
    }
    let err = |msg: String| CsvError::Parse { line, message: msg };
    let (ns, rest) = raw
        .split_once(':')
        .ok_or_else(|| err(format!("bad sub-cause {raw:?}: missing namespace")))?;
    match ns {
        "HW" => rest
            .parse::<HardwareComponent>()
            .map(SubCause::Hardware)
            .map_err(|e| err(format!("bad sub-cause {raw:?}: {e}"))),
        "SW" => rest
            .parse::<SoftwareCause>()
            .map(SubCause::Software)
            .map_err(|e| err(format!("bad sub-cause {raw:?}: {e}"))),
        "ENV" => rest
            .parse::<EnvironmentCause>()
            .map(SubCause::Environment)
            .map_err(|e| err(format!("bad sub-cause {raw:?}: {e}"))),
        _ => Err(err(format!("bad sub-cause namespace {ns:?}"))),
    }
}

/// Writes failure records. Pass `&mut w` to keep using the writer.
///
/// # Errors
///
/// Any I/O failure from the writer.
pub fn write_failures<W, I>(mut w: W, records: I) -> Result<(), CsvError>
where
    W: Write,
    I: IntoIterator,
    I::Item: Borrow<FailureRecord>,
{
    writeln!(w, "{}", headers::FAILURES)?;
    for r in records {
        let r = r.borrow();
        writeln!(
            w,
            "{},{},{},{},{},{}",
            r.system.raw(),
            r.node.raw(),
            r.time.as_seconds(),
            r.root_cause.label(),
            sub_cause_label(r.sub_cause),
            r.downtime
                .map_or(String::new(), |d| d.as_seconds().to_string()),
        )?;
    }
    Ok(())
}

/// Parses one `failures.csv` data line. Under `relaxed` (the
/// best-effort ingestion policy) recoverable fields fall back to the
/// paper's "Unknown" conventions instead of failing the line — a bad
/// root cause becomes [`RootCause::Undetermined`], a bad or
/// inconsistent sub-cause becomes [`SubCause::None`], and a bad
/// downtime is dropped — returning how many fields were defaulted.
/// Identity fields (system, node, time, field count) always error.
pub(crate) fn parse_failure_line(
    line: &str,
    lineno: usize,
    relaxed: bool,
) -> Result<(FailureRecord, u32), CsvError> {
    let mut defaulted = 0u32;
    let mut f = Fields::new(line, lineno, 6)?;
    let system = SystemId::new(f.next("system id")?);
    let node = NodeId::new(f.next("node id")?);
    let time = Timestamp::from_seconds(f.next("time")?);
    let root: RootCause = match f.next("root cause") {
        Ok(root) => root,
        Err(_) if relaxed => {
            defaulted += 1;
            RootCause::Undetermined
        }
        Err(e) => return Err(e),
    };
    let sub = match parse_sub_cause(f.next_str(), lineno) {
        Ok(sub) if sub.consistent_with(root) => sub,
        Ok(sub) if !relaxed => {
            return Err(CsvError::Parse {
                line: lineno,
                message: format!("sub-cause {sub} inconsistent with root cause {root}"),
            })
        }
        Err(e) if !relaxed => return Err(e),
        _ => {
            defaulted += 1;
            SubCause::None
        }
    };
    let downtime_raw = f.next_str();
    let mut record = FailureRecord::new(system, node, time, root, sub);
    if !downtime_raw.is_empty() {
        match downtime_raw.parse::<i64>() {
            Ok(secs) => record = record.with_downtime(Duration::from_seconds(secs)),
            Err(_) if relaxed => defaulted += 1,
            Err(e) => {
                return Err(CsvError::Parse {
                    line: lineno,
                    message: format!("bad downtime {downtime_raw:?}: {e}"),
                })
            }
        }
    }
    Ok((record, defaulted))
}

/// Reads failure records written by [`write_failures`].
///
/// # Errors
///
/// I/O failures and malformed lines.
pub fn read_failures<R: Read>(r: R) -> Result<Vec<FailureRecord>, CsvError> {
    let mut out = Vec::new();
    for (idx, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        if skip_line(&line, idx, headers::FAILURES) {
            continue;
        }
        let (record, _) = parse_failure_line(&line, idx + 1, false)?;
        out.push(record);
    }
    hpcfail_obs::counter("store.csv_rows_read").add(out.len() as u64);
    Ok(out)
}

/// Writes job records.
///
/// # Errors
///
/// Any I/O failure from the writer.
pub fn write_jobs<W, I>(mut w: W, records: I) -> Result<(), CsvError>
where
    W: Write,
    I: IntoIterator,
    I::Item: Borrow<JobRecord>,
{
    writeln!(w, "{}", headers::JOBS)?;
    for j in records {
        let j = j.borrow();
        let nodes: Vec<String> = j.nodes.iter().map(|n| n.raw().to_string()).collect();
        writeln!(
            w,
            "{},{},{},{},{},{},{},{}",
            j.system.raw(),
            j.job_id.raw(),
            j.user.raw(),
            j.submit.as_seconds(),
            j.dispatch.as_seconds(),
            j.end.as_seconds(),
            j.procs,
            nodes.join(";"),
        )?;
    }
    Ok(())
}

/// Reads job records written by [`write_jobs`].
///
/// # Errors
///
/// I/O failures and malformed lines.
pub fn read_jobs<R: Read>(r: R) -> Result<Vec<JobRecord>, CsvError> {
    let mut out = Vec::new();
    for (idx, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        if skip_line(&line, idx, headers::JOBS) {
            continue;
        }
        out.push(parse_job_line(&line, idx + 1)?);
    }
    hpcfail_obs::counter("store.csv_rows_read").add(out.len() as u64);
    Ok(out)
}

/// Parses one `jobs.csv` data line.
pub(crate) fn parse_job_line(line: &str, lineno: usize) -> Result<JobRecord, CsvError> {
    let mut f = Fields::new(line, lineno, 8)?;
    let system = SystemId::new(f.next("system id")?);
    let job_id = JobId::new(f.next("job id")?);
    let user = UserId::new(f.next("user id")?);
    let submit = Timestamp::from_seconds(f.next("submit")?);
    let dispatch = Timestamp::from_seconds(f.next("dispatch")?);
    let end = Timestamp::from_seconds(f.next("end")?);
    let procs = f.next("procs")?;
    let nodes_raw = f.next_str();
    let mut nodes = Vec::new();
    for part in nodes_raw.split(';').filter(|p| !p.is_empty()) {
        let raw: u32 = part.parse().map_err(|e| CsvError::Parse {
            line: lineno,
            message: format!("bad node id {part:?}: {e}"),
        })?;
        nodes.push(NodeId::new(raw));
    }
    Ok(JobRecord {
        system,
        job_id,
        user,
        submit,
        dispatch,
        end,
        procs,
        nodes,
    })
}

/// Writes temperature samples.
///
/// # Errors
///
/// Any I/O failure from the writer.
pub fn write_temperatures<W, I>(mut w: W, samples: I) -> Result<(), CsvError>
where
    W: Write,
    I: IntoIterator,
    I::Item: Borrow<TemperatureSample>,
{
    writeln!(w, "{}", headers::TEMPERATURES)?;
    for s in samples {
        let s = s.borrow();
        writeln!(
            w,
            "{},{},{},{}",
            s.system.raw(),
            s.node.raw(),
            s.time.as_seconds(),
            s.celsius
        )?;
    }
    Ok(())
}

/// Reads temperature samples written by [`write_temperatures`].
///
/// # Errors
///
/// I/O failures and malformed lines.
pub fn read_temperatures<R: Read>(r: R) -> Result<Vec<TemperatureSample>, CsvError> {
    let mut out = Vec::new();
    for (idx, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        if skip_line(&line, idx, headers::TEMPERATURES) {
            continue;
        }
        out.push(parse_temperature_line(&line, idx + 1)?);
    }
    hpcfail_obs::counter("store.csv_rows_read").add(out.len() as u64);
    Ok(out)
}

/// Parses one `temperatures.csv` data line.
pub(crate) fn parse_temperature_line(
    line: &str,
    lineno: usize,
) -> Result<TemperatureSample, CsvError> {
    let mut f = Fields::new(line, lineno, 4)?;
    Ok(TemperatureSample {
        system: SystemId::new(f.next("system id")?),
        node: NodeId::new(f.next("node id")?),
        time: Timestamp::from_seconds(f.next("time")?),
        celsius: f.next("temperature")?,
    })
}

/// Writes maintenance records.
///
/// # Errors
///
/// Any I/O failure from the writer.
pub fn write_maintenance<W, I>(mut w: W, records: I) -> Result<(), CsvError>
where
    W: Write,
    I: IntoIterator,
    I::Item: Borrow<MaintenanceRecord>,
{
    writeln!(w, "{}", headers::MAINTENANCE)?;
    for m in records {
        let m = m.borrow();
        writeln!(
            w,
            "{},{},{},{},{}",
            m.system.raw(),
            m.node.raw(),
            m.time.as_seconds(),
            u8::from(m.hardware_related),
            u8::from(m.scheduled),
        )?;
    }
    Ok(())
}

/// Reads maintenance records written by [`write_maintenance`].
///
/// # Errors
///
/// I/O failures and malformed lines.
pub fn read_maintenance<R: Read>(r: R) -> Result<Vec<MaintenanceRecord>, CsvError> {
    let mut out = Vec::new();
    for (idx, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        if skip_line(&line, idx, headers::MAINTENANCE) {
            continue;
        }
        out.push(parse_maintenance_line(&line, idx + 1)?);
    }
    hpcfail_obs::counter("store.csv_rows_read").add(out.len() as u64);
    Ok(out)
}

/// Parses one `maintenance.csv` data line.
pub(crate) fn parse_maintenance_line(
    line: &str,
    lineno: usize,
) -> Result<MaintenanceRecord, CsvError> {
    let mut f = Fields::new(line, lineno, 5)?;
    let system = SystemId::new(f.next("system id")?);
    let node = NodeId::new(f.next("node id")?);
    let time = Timestamp::from_seconds(f.next("time")?);
    let hw: u8 = f.next("hardware_related flag")?;
    let sched: u8 = f.next("scheduled flag")?;
    Ok(MaintenanceRecord {
        system,
        node,
        time,
        hardware_related: hw != 0,
        scheduled: sched != 0,
    })
}

/// Writes neutron-monitor samples.
///
/// # Errors
///
/// Any I/O failure from the writer.
pub fn write_neutron<W: Write>(mut w: W, samples: &[NeutronSample]) -> Result<(), CsvError> {
    writeln!(w, "{}", headers::NEUTRON)?;
    for s in samples {
        writeln!(w, "{},{}", s.time.as_seconds(), s.counts_per_minute)?;
    }
    Ok(())
}

/// Reads neutron-monitor samples written by [`write_neutron`].
///
/// # Errors
///
/// I/O failures and malformed lines.
pub fn read_neutron<R: Read>(r: R) -> Result<Vec<NeutronSample>, CsvError> {
    let mut out = Vec::new();
    for (idx, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        if skip_line(&line, idx, headers::NEUTRON) {
            continue;
        }
        out.push(parse_neutron_line(&line, idx + 1)?);
    }
    hpcfail_obs::counter("store.csv_rows_read").add(out.len() as u64);
    Ok(out)
}

/// Parses one `neutron.csv` data line.
pub(crate) fn parse_neutron_line(line: &str, lineno: usize) -> Result<NeutronSample, CsvError> {
    let mut f = Fields::new(line, lineno, 2)?;
    Ok(NeutronSample {
        time: Timestamp::from_seconds(f.next("time")?),
        counts_per_minute: f.next("counts")?,
    })
}

/// Writes one system's machine-room layout.
///
/// # Errors
///
/// Any I/O failure from the writer.
pub fn write_layout<W: Write>(
    mut w: W,
    system: SystemId,
    layout: &MachineLayout,
) -> Result<(), CsvError> {
    writeln!(w, "{}", headers::LAYOUT)?;
    for (node, loc) in layout.iter() {
        writeln!(
            w,
            "{},{},{},{},{},{}",
            system.raw(),
            node.raw(),
            loc.rack.raw(),
            loc.position_in_rack,
            loc.room_row,
            loc.room_col,
        )?;
    }
    Ok(())
}

/// Reads layouts written by [`write_layout`] (possibly several systems
/// concatenated), keyed by system id.
///
/// # Errors
///
/// I/O failures and malformed lines.
pub fn read_layouts<R: Read>(r: R) -> Result<BTreeMap<SystemId, MachineLayout>, CsvError> {
    let mut out: BTreeMap<SystemId, MachineLayout> = BTreeMap::new();
    for (idx, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        // Concatenated per-system sections repeat the header mid-file;
        // skip it wherever it appears, but only on exact match so a
        // data-bearing first line is never dropped.
        if line.is_empty() || line == headers::LAYOUT {
            continue;
        }
        let (system, node, loc) = parse_layout_line(&line, idx + 1)?;
        out.entry(system).or_default().place(node, loc);
    }
    Ok(out)
}

/// Parses one `layout.csv` data line into its placement triple.
pub(crate) fn parse_layout_line(
    line: &str,
    lineno: usize,
) -> Result<(SystemId, NodeId, NodeLocation), CsvError> {
    let mut f = Fields::new(line, lineno, 6)?;
    let system = SystemId::new(f.next("system id")?);
    let node = NodeId::new(f.next("node id")?);
    let loc = NodeLocation {
        rack: RackId::new(f.next("rack id")?),
        position_in_rack: f.next("position in rack")?,
        room_row: f.next("room row")?,
        room_col: f.next("room column")?,
    };
    Ok((system, node, loc))
}

fn hardware_label(h: HardwareClass) -> &'static str {
    match h {
        HardwareClass::Smp4Way => "SMP4",
        HardwareClass::Numa => "NUMA",
    }
}

/// Writes system configurations.
///
/// # Errors
///
/// Any I/O failure from the writer.
pub fn write_system_configs<W: Write>(mut w: W, configs: &[SystemConfig]) -> Result<(), CsvError> {
    writeln!(w, "{}", headers::SYSTEMS)?;
    for c in configs {
        writeln!(
            w,
            "{},{},{},{},{},{},{},{},{},{}",
            c.id.raw(),
            c.name,
            c.nodes,
            c.procs_per_node,
            hardware_label(c.hardware),
            c.start.as_seconds(),
            c.end.as_seconds(),
            u8::from(c.has_layout),
            u8::from(c.has_job_log),
            u8::from(c.has_temperature),
        )?;
    }
    Ok(())
}

/// Reads system configurations written by [`write_system_configs`].
///
/// # Errors
///
/// I/O failures and malformed lines.
pub fn read_system_configs<R: Read>(r: R) -> Result<Vec<SystemConfig>, CsvError> {
    let mut out = Vec::new();
    for (idx, line) in BufReader::new(r).lines().enumerate() {
        let line = line?;
        if skip_line(&line, idx, headers::SYSTEMS) {
            continue;
        }
        out.push(parse_system_line(&line, idx + 1)?);
    }
    Ok(out)
}

/// Parses one `systems.csv` data line.
pub(crate) fn parse_system_line(line: &str, lineno: usize) -> Result<SystemConfig, CsvError> {
    let mut f = Fields::new(line, lineno, 10)?;
    let id = SystemId::new(f.next("system id")?);
    let name = f.next_str().to_owned();
    let nodes = f.next("node count")?;
    let procs_per_node = f.next("procs per node")?;
    let hardware = match f.next_str() {
        "SMP4" => HardwareClass::Smp4Way,
        "NUMA" => HardwareClass::Numa,
        other => {
            return Err(CsvError::Parse {
                line: lineno,
                message: format!("unknown hardware class {other:?}"),
            })
        }
    };
    let start = Timestamp::from_seconds(f.next("start")?);
    let end = Timestamp::from_seconds(f.next("end")?);
    let has_layout = f.next::<u8>("has_layout")? != 0;
    let has_job_log = f.next::<u8>("has_job_log")? != 0;
    let has_temperature = f.next::<u8>("has_temperature")? != 0;
    Ok(SystemConfig {
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
    })
}

/// Saves a full trace as a directory of CSV files. Every record file
/// has one header line followed by the rows of all systems in id
/// order; `layout.csv` repeats its header per system with a layout.
///
/// # Errors
///
/// I/O failures creating the directory or writing any file.
pub fn save_trace<P: AsRef<Path>>(dir: P, trace: &Trace) -> Result<(), CsvError> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let configs: Vec<SystemConfig> = trace.systems().map(|s| s.config().clone()).collect();
    save_file(dir, "systems.csv", |w| write_system_configs(w, &configs))?;
    save_file(dir, "failures.csv", |w| {
        write_failures(w, trace.systems().flat_map(SystemTrace::failures))
    })?;
    save_file(dir, "jobs.csv", |w| {
        write_jobs(w, trace.systems().flat_map(SystemTrace::jobs))
    })?;
    save_file(dir, "temperatures.csv", |w| {
        write_temperatures(w, trace.systems().flat_map(SystemTrace::temperatures))
    })?;
    save_file(dir, "maintenance.csv", |w| {
        write_maintenance(w, trace.systems().flat_map(SystemTrace::maintenance))
    })?;
    save_file(dir, "layout.csv", |w| {
        for s in trace.systems() {
            if let Some(l) = s.layout() {
                write_layout(&mut *w, s.id(), l)?;
            }
        }
        Ok(())
    })?;
    save_file(dir, "neutron.csv", |w| {
        write_neutron(w, trace.neutron_samples())
    })
}

/// Creates `dir/name`, fills it through a buffer and flushes it, so a
/// failed final write is reported rather than dropped.
fn save_file(
    dir: &Path,
    name: &str,
    write: impl FnOnce(&mut BufWriter<std::fs::File>) -> Result<(), CsvError>,
) -> Result<(), CsvError> {
    let mut w = BufWriter::new(std::fs::File::create(dir.join(name))?);
    write(&mut w)?;
    w.flush()?;
    Ok(())
}

/// Loads a trace saved by [`save_trace`], failing fast on the first
/// malformed line (the [`IngestPolicy::Strict`](crate::ingest::IngestPolicy)
/// policy). Use [`crate::ingest::load_trace_with`] for lenient or
/// best-effort loads of dirty data.
///
/// # Errors
///
/// I/O failures and malformed lines, with the offending file name
/// attached. Records referencing a system id absent from `systems.csv`
/// or a node id outside the system's configured node count are
/// rejected.
pub fn load_trace<P: AsRef<Path>>(dir: P) -> Result<Trace, CsvError> {
    crate::ingest::load_trace_with(dir, crate::ingest::IngestPolicy::Strict).map(|(t, _)| t)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_failures() -> Vec<FailureRecord> {
        vec![
            FailureRecord::new(
                SystemId::new(20),
                NodeId::new(0),
                Timestamp::from_seconds(1000),
                RootCause::Hardware,
                SubCause::Hardware(HardwareComponent::MemoryDimm),
            )
            .with_downtime(Duration::from_seconds(3600)),
            FailureRecord::new(
                SystemId::new(20),
                NodeId::new(5),
                Timestamp::from_seconds(2000),
                RootCause::Environment,
                SubCause::Environment(EnvironmentCause::PowerOutage),
            ),
            FailureRecord::new(
                SystemId::new(20),
                NodeId::new(7),
                Timestamp::from_seconds(3000),
                RootCause::Undetermined,
                SubCause::None,
            ),
        ]
    }

    #[test]
    fn failures_roundtrip() {
        let records = sample_failures();
        let mut buf = Vec::new();
        write_failures(&mut buf, &records).unwrap();
        let parsed = read_failures(&buf[..]).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn headerless_file_keeps_first_record() {
        // A file exported without a header must not lose its first row.
        let records = sample_failures();
        let mut buf = Vec::new();
        write_failures(&mut buf, &records).unwrap();
        let body = String::from_utf8(buf).unwrap();
        let headerless = body.split_once('\n').unwrap().1;
        assert_eq!(read_failures(headerless.as_bytes()).unwrap(), records);

        let jobs = vec![JobRecord {
            system: SystemId::new(8),
            job_id: JobId::new(1),
            user: UserId::new(2),
            submit: Timestamp::from_seconds(10),
            dispatch: Timestamp::from_seconds(20),
            end: Timestamp::from_seconds(30),
            procs: 4,
            nodes: vec![NodeId::new(3)],
        }];
        let mut buf = Vec::new();
        write_jobs(&mut buf, &jobs).unwrap();
        let body = String::from_utf8(buf).unwrap();
        let headerless = body.split_once('\n').unwrap().1;
        assert_eq!(read_jobs(headerless.as_bytes()).unwrap(), jobs);
    }

    #[test]
    fn malformed_header_is_a_parse_error_at_line_1() {
        // Neither the expected header nor parseable data.
        let csv = "node,system,time\n20,0,10,HW,-,\n";
        let err = read_failures(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn foreign_header_is_rejected_not_skipped() {
        // A jobs header atop failure data means a mixed-up export;
        // surface it instead of silently dropping a line.
        let csv = format!("{}\n20,0,10,HW,-,\n", super::headers::JOBS);
        let err = read_failures(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn concatenated_layout_sections_parse() {
        let place = |layout: &mut MachineLayout, n: u32| {
            layout.place(
                NodeId::new(n),
                NodeLocation {
                    rack: RackId::new(0),
                    position_in_rack: (n + 1) as u8,
                    room_row: 0,
                    room_col: 0,
                },
            );
        };
        let mut a = MachineLayout::new();
        place(&mut a, 0);
        let mut b = MachineLayout::new();
        place(&mut b, 1);
        let mut buf = Vec::new();
        write_layout(&mut buf, SystemId::new(1), &a).unwrap();
        write_layout(&mut buf, SystemId::new(2), &b).unwrap();
        let parsed = read_layouts(&buf[..]).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed[&SystemId::new(1)], a);
        assert_eq!(parsed[&SystemId::new(2)], b);
    }

    #[test]
    fn failures_reject_bad_root_cause() {
        let csv = "system,node,time,root_cause,sub_cause,downtime\n20,0,10,BOGUS,-,\n";
        let err = read_failures(csv.as_bytes()).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 2, .. }), "{err}");
    }

    #[test]
    fn failures_reject_inconsistent_subcause() {
        let csv = "system,node,time,root_cause,sub_cause,downtime\n20,0,10,NET,HW:CPU,\n";
        let err = read_failures(csv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("inconsistent"));
    }

    #[test]
    fn failures_reject_wrong_field_count() {
        let csv = "system,node,time,root_cause,sub_cause,downtime\n20,0,10,HW\n";
        let err = read_failures(csv.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("expected 6 fields"));
    }

    #[test]
    fn jobs_roundtrip() {
        let jobs = vec![JobRecord {
            system: SystemId::new(8),
            job_id: JobId::new(42),
            user: UserId::new(3),
            submit: Timestamp::from_seconds(100),
            dispatch: Timestamp::from_seconds(150),
            end: Timestamp::from_seconds(500),
            procs: 8,
            nodes: vec![NodeId::new(1), NodeId::new(2)],
        }];
        let mut buf = Vec::new();
        write_jobs(&mut buf, &jobs).unwrap();
        assert_eq!(read_jobs(&buf[..]).unwrap(), jobs);
    }

    #[test]
    fn temperatures_and_neutron_roundtrip() {
        let temps = vec![TemperatureSample {
            system: SystemId::new(20),
            node: NodeId::new(9),
            time: Timestamp::from_seconds(77),
            celsius: 35.25,
        }];
        let mut buf = Vec::new();
        write_temperatures(&mut buf, &temps).unwrap();
        assert_eq!(read_temperatures(&buf[..]).unwrap(), temps);

        let neutron = vec![NeutronSample {
            time: Timestamp::from_seconds(1),
            counts_per_minute: 4123.5,
        }];
        let mut buf = Vec::new();
        write_neutron(&mut buf, &neutron).unwrap();
        assert_eq!(read_neutron(&buf[..]).unwrap(), neutron);
    }

    #[test]
    fn maintenance_roundtrip() {
        let records = vec![MaintenanceRecord {
            system: SystemId::new(2),
            node: NodeId::new(1),
            time: Timestamp::from_seconds(9),
            hardware_related: true,
            scheduled: false,
        }];
        let mut buf = Vec::new();
        write_maintenance(&mut buf, &records).unwrap();
        assert_eq!(read_maintenance(&buf[..]).unwrap(), records);
    }

    #[test]
    fn layout_roundtrip() {
        let mut layout = MachineLayout::new();
        for n in 0..10u32 {
            layout.place(
                NodeId::new(n),
                NodeLocation {
                    rack: RackId::new((n / 5) as u16),
                    position_in_rack: (n % 5 + 1) as u8,
                    room_row: 1,
                    room_col: (n / 5) as u16,
                },
            );
        }
        let mut buf = Vec::new();
        write_layout(&mut buf, SystemId::new(18), &layout).unwrap();
        let parsed = read_layouts(&buf[..]).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[&SystemId::new(18)], layout);
    }

    #[test]
    fn system_configs_roundtrip() {
        let configs = vec![SystemConfig {
            id: SystemId::new(23),
            name: "numa-23".into(),
            nodes: 5,
            procs_per_node: 128,
            hardware: HardwareClass::Numa,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(365.0),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        }];
        let mut buf = Vec::new();
        write_system_configs(&mut buf, &configs).unwrap();
        assert_eq!(read_system_configs(&buf[..]).unwrap(), configs);
    }

    #[test]
    fn trace_directory_roundtrip() {
        use crate::trace::SystemTraceBuilder;
        let dir = std::env::temp_dir().join(format!("hpcfail-csv-test-{}", std::process::id()));
        let config = SystemConfig {
            id: SystemId::new(20),
            name: "sys20".into(),
            nodes: 8,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(100.0),
            has_layout: true,
            has_job_log: true,
            has_temperature: true,
        };
        let mut b = SystemTraceBuilder::new(config);
        for r in sample_failures() {
            b.push_failure(r);
        }
        let mut layout = MachineLayout::new();
        layout.place(
            NodeId::new(0),
            NodeLocation {
                rack: RackId::new(0),
                position_in_rack: 1,
                room_row: 0,
                room_col: 0,
            },
        );
        b.layout(layout);
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace.set_neutron_samples(vec![NeutronSample {
            time: Timestamp::from_seconds(5),
            counts_per_minute: 4000.0,
        }]);

        save_trace(&dir, &trace).unwrap();
        let loaded = load_trace(&dir).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();

        assert_eq!(loaded.len(), 1);
        let sys = loaded.system(SystemId::new(20)).unwrap();
        assert!(sys
            .failures()
            .eq(trace.system(SystemId::new(20)).unwrap().failures()));
        assert_eq!(sys.layout().unwrap().len(), 1);
        assert_eq!(loaded.neutron_samples().len(), 1);
    }
}
