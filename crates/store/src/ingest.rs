//! Resilient ingestion: configurable parsing policies, per-line
//! quarantine, and a cross-record data-quality audit.
//!
//! Real failure logs are messy — LANL's release carries unknown root
//! causes, missing repair times and the occasional torn or re-encoded
//! line. The strict readers in [`crate::csv`] abort a nine-year load on
//! the first malformed byte; this module adds two recovery policies on
//! top of the same per-line parsers:
//!
//! - [`IngestPolicy::Strict`] — today's fail-fast behavior, now with
//!   the offending file name attached to every error.
//! - [`IngestPolicy::Lenient`] — malformed lines are set aside in a
//!   [`QuarantinedLine`] (file, 1-based line, reason, raw bytes) and
//!   the load continues. Consecutive exact duplicates are dropped.
//! - [`IngestPolicy::BestEffort`] — like `Lenient`, but recoverable
//!   fields fall back to the paper's "Unknown" conventions (bad root
//!   cause → `Undetermined`, bad sub-cause → none, bad downtime →
//!   missing) before the line is given up on.
//!
//! [`load_trace_with`] then runs a cross-record validation pass —
//! non-negative downtime, monotone-enough timestamps, node ids
//! resolvable against the system configuration, overlapping repair
//! windows, duplicate and unknown-system records — and returns a typed
//! [`DataQualityReport`] alongside the trace. Everything is surfaced as
//! `ingest.*` / `quality.*` observability counters, so run manifests
//! record exactly how dirty the input was.

use crate::csv::{self, headers, CsvError};
use crate::trace::{SystemTraceBuilder, Trace};
use hpcfail_types::prelude::*;
use std::collections::BTreeMap;
use std::fmt;
use std::io::{BufRead, BufReader, Read};
use std::path::Path;
use std::str::FromStr;

/// How much recovery the reader attempts on malformed input.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum IngestPolicy {
    /// Fail fast on the first malformed line (the historical behavior).
    #[default]
    Strict,
    /// Quarantine malformed lines with context and keep going.
    Lenient,
    /// Quarantine like `Lenient`, but first try field-level defaults
    /// mirroring the paper's "Unknown" root-cause convention.
    BestEffort,
}

impl IngestPolicy {
    /// The command-line label (`strict`, `lenient`, `best-effort`).
    pub fn label(self) -> &'static str {
        match self {
            IngestPolicy::Strict => "strict",
            IngestPolicy::Lenient => "lenient",
            IngestPolicy::BestEffort => "best-effort",
        }
    }

    /// `true` if malformed lines are recovered rather than fatal.
    pub fn recovers(self) -> bool {
        !matches!(self, IngestPolicy::Strict)
    }

    fn relaxed(self) -> bool {
        matches!(self, IngestPolicy::BestEffort)
    }
}

impl fmt::Display for IngestPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for IngestPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "strict" => Ok(IngestPolicy::Strict),
            "lenient" => Ok(IngestPolicy::Lenient),
            "best-effort" | "besteffort" | "best_effort" => Ok(IngestPolicy::BestEffort),
            other => Err(format!(
                "unknown ingestion policy {other:?} (expected strict, lenient or best-effort)"
            )),
        }
    }
}

/// Longest raw-line prefix kept in a quarantine entry.
const RAW_SNIPPET_BYTES: usize = 120;

/// One malformed line that lenient ingestion set aside.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuarantinedLine {
    /// Source file name.
    pub file: String,
    /// 1-based line number within the file.
    pub line: usize,
    /// Why the line was rejected.
    pub message: String,
    /// The raw line (lossily decoded, truncated to a short snippet).
    pub raw: String,
}

impl fmt::Display for QuarantinedLine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: {}", self.file, self.line, self.message)
    }
}

/// Counts from the cross-record validation pass. Each field is the
/// number of findings of that kind; what happened to the offending
/// record depends on the policy (see the field docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataQualityReport {
    /// Failure records whose downtime was negative. Recovering policies
    /// drop the downtime field; `Strict` keeps the record as-is.
    pub negative_downtime: u64,
    /// Adjacent same-system failure pairs whose timestamps decrease in
    /// file order. Counted only — the store sorts on build.
    pub out_of_order_timestamps: u64,
    /// Records naming a node outside the system's configured node
    /// count. Fatal under `Strict`; dropped otherwise.
    pub unresolvable_nodes: u64,
    /// Same-node failure pairs whose repair window (time + downtime)
    /// overlaps the next failure. Counted only.
    pub overlapping_repairs: u64,
    /// Consecutive exact-duplicate lines. Recovering policies keep the
    /// first copy only; `Strict` keeps all.
    pub duplicate_records: u64,
    /// Records naming a system absent from `systems.csv`. Fatal under
    /// `Strict`; dropped otherwise.
    pub unknown_system_records: u64,
}

impl DataQualityReport {
    /// Total findings across all categories.
    pub fn total_findings(&self) -> u64 {
        self.negative_downtime
            + self.out_of_order_timestamps
            + self.unresolvable_nodes
            + self.overlapping_repairs
            + self.duplicate_records
            + self.unknown_system_records
    }

    /// `true` if the audit found nothing.
    pub fn is_clean(&self) -> bool {
        self.total_findings() == 0
    }
}

/// Everything a policy-aware load did beyond returning records.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// The policy the load ran under.
    pub policy: IngestPolicy,
    /// Lines parsed into records (before cross-record drops).
    pub rows_ok: u64,
    /// Malformed lines set aside (always empty under `Strict`).
    pub quarantined: Vec<QuarantinedLine>,
    /// Fields replaced with defaults under `BestEffort` (plus negative
    /// downtimes nulled by the quality pass under recovering policies).
    pub defaulted_fields: u64,
    /// The cross-record audit results.
    pub quality: DataQualityReport,
}

impl IngestReport {
    /// An empty report for the given policy.
    pub fn new(policy: IngestPolicy) -> Self {
        IngestReport {
            policy,
            rows_ok: 0,
            quarantined: Vec::new(),
            defaulted_fields: 0,
            quality: DataQualityReport::default(),
        }
    }

    /// `true` if anything at all was quarantined, defaulted or flagged.
    pub fn is_degraded(&self) -> bool {
        !self.quarantined.is_empty() || self.defaulted_fields > 0 || !self.quality.is_clean()
    }
}

/// One file's records plus what recovery set aside.
#[derive(Debug, Clone)]
pub struct FileRead<T> {
    /// Successfully parsed records, in file order.
    pub records: Vec<T>,
    /// Malformed lines (empty under `Strict`, which errors instead).
    pub quarantined: Vec<QuarantinedLine>,
    /// Fields defaulted under `BestEffort`.
    pub defaulted_fields: u64,
    /// Consecutive exact-duplicate lines seen (dropped under
    /// recovering policies, kept under `Strict`).
    pub duplicates: u64,
}

impl<T> FileRead<T> {
    pub(crate) fn quarantine(&mut self, file: &str, line: usize, message: String, raw: &[u8]) {
        let mut snippet = String::from_utf8_lossy(raw).into_owned();
        if snippet.len() > RAW_SNIPPET_BYTES {
            let mut cut = RAW_SNIPPET_BYTES;
            while !snippet.is_char_boundary(cut) {
                cut -= 1;
            }
            snippet.truncate(cut);
        }
        self.quarantined.push(QuarantinedLine {
            file: file.to_owned(),
            line,
            message,
            raw: snippet,
        });
    }
}

/// The shared reading engine: raw byte lines (so invalid UTF-8 is a
/// per-line problem, not a stream abort), header skipping, and
/// policy-driven error handling around a per-line parser.
fn read_records<R, T, F>(
    r: R,
    file: &str,
    header: &str,
    header_anywhere: bool,
    policy: IngestPolicy,
    mut parse: F,
) -> Result<FileRead<T>, CsvError>
where
    R: Read,
    T: PartialEq,
    F: FnMut(&str, usize, bool) -> Result<(T, u32), CsvError>,
{
    let mut reader = BufReader::new(r);
    let mut out = FileRead {
        records: Vec::new(),
        quarantined: Vec::new(),
        defaulted_fields: 0,
        duplicates: 0,
    };
    let mut buf: Vec<u8> = Vec::new();
    let mut lineno = 0usize;
    loop {
        buf.clear();
        let n = reader
            .read_until(b'\n', &mut buf)
            .map_err(|e| CsvError::from(e).in_file(file))?;
        if n == 0 {
            break;
        }
        lineno += 1;
        if buf.last() == Some(&b'\n') {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        let Ok(line) = std::str::from_utf8(&buf) else {
            if policy.recovers() {
                out.quarantine(file, lineno, "invalid UTF-8".into(), &buf);
                continue;
            }
            return Err(CsvError::Parse {
                line: lineno,
                message: "invalid UTF-8".into(),
            }
            .in_file(file));
        };
        if line.is_empty() {
            continue;
        }
        if line == header && (lineno == 1 || header_anywhere) {
            continue;
        }
        match parse(line, lineno, policy.relaxed()) {
            Ok((record, defaulted)) => {
                out.defaulted_fields += u64::from(defaulted);
                if out.records.last() == Some(&record) {
                    out.duplicates += 1;
                    if policy.recovers() {
                        continue;
                    }
                }
                out.records.push(record);
            }
            Err(e) => {
                if !policy.recovers() {
                    return Err(e.in_file(file));
                }
                let message = match &e {
                    CsvError::Parse { message, .. } => message.clone(),
                    other => other.to_string(),
                };
                out.quarantine(file, lineno, message, &buf);
            }
        }
    }
    hpcfail_obs::counter("ingest.rows_ok").add(out.records.len() as u64);
    hpcfail_obs::counter("ingest.quarantined").add(out.quarantined.len() as u64);
    hpcfail_obs::counter("ingest.defaulted").add(out.defaulted_fields);
    Ok(out)
}

/// Reads `failures.csv` under the given policy.
///
/// # Errors
///
/// I/O failures always; parse failures only under `Strict`.
pub fn read_failures_with<R: Read>(
    r: R,
    file: &str,
    policy: IngestPolicy,
) -> Result<FileRead<FailureRecord>, CsvError> {
    read_records(
        r,
        file,
        headers::FAILURES,
        false,
        policy,
        csv::parse_failure_line,
    )
}

/// Reads `jobs.csv` under the given policy.
///
/// # Errors
///
/// I/O failures always; parse failures only under `Strict`.
pub fn read_jobs_with<R: Read>(
    r: R,
    file: &str,
    policy: IngestPolicy,
) -> Result<FileRead<JobRecord>, CsvError> {
    read_records(r, file, headers::JOBS, false, policy, |l, n, _| {
        csv::parse_job_line(l, n).map(|r| (r, 0))
    })
}

/// Reads `temperatures.csv` under the given policy.
///
/// # Errors
///
/// I/O failures always; parse failures only under `Strict`.
pub fn read_temperatures_with<R: Read>(
    r: R,
    file: &str,
    policy: IngestPolicy,
) -> Result<FileRead<TemperatureSample>, CsvError> {
    read_records(r, file, headers::TEMPERATURES, false, policy, |l, n, _| {
        csv::parse_temperature_line(l, n).map(|r| (r, 0))
    })
}

/// Reads `maintenance.csv` under the given policy.
///
/// # Errors
///
/// I/O failures always; parse failures only under `Strict`.
pub fn read_maintenance_with<R: Read>(
    r: R,
    file: &str,
    policy: IngestPolicy,
) -> Result<FileRead<MaintenanceRecord>, CsvError> {
    read_records(r, file, headers::MAINTENANCE, false, policy, |l, n, _| {
        csv::parse_maintenance_line(l, n).map(|r| (r, 0))
    })
}

/// Reads `neutron.csv` under the given policy.
///
/// # Errors
///
/// I/O failures always; parse failures only under `Strict`.
pub fn read_neutron_with<R: Read>(
    r: R,
    file: &str,
    policy: IngestPolicy,
) -> Result<FileRead<NeutronSample>, CsvError> {
    read_records(r, file, headers::NEUTRON, false, policy, |l, n, _| {
        csv::parse_neutron_line(l, n).map(|r| (r, 0))
    })
}

/// Reads `systems.csv` under the given policy.
///
/// # Errors
///
/// I/O failures always; parse failures only under `Strict`.
pub fn read_system_configs_with<R: Read>(
    r: R,
    file: &str,
    policy: IngestPolicy,
) -> Result<FileRead<SystemConfig>, CsvError> {
    read_records(r, file, headers::SYSTEMS, false, policy, |l, n, _| {
        csv::parse_system_line(l, n).map(|r| (r, 0))
    })
}

/// Reads `layout.csv` placement rows under the given policy. The header
/// is skipped wherever it appears (concatenated per-system sections
/// repeat it mid-file).
///
/// # Errors
///
/// I/O failures always; parse failures only under `Strict`.
pub fn read_layout_rows_with<R: Read>(
    r: R,
    file: &str,
    policy: IngestPolicy,
) -> Result<FileRead<(SystemId, NodeId, NodeLocation)>, CsvError> {
    read_records(r, file, headers::LAYOUT, true, policy, |l, n, _| {
        csv::parse_layout_line(l, n).map(|r| (r, 0))
    })
}

/// Decides whether a record belongs to a known system and (when `node`
/// is given) a node inside its configured range. Under `Strict`, a
/// violation is an error; under recovering policies it is counted in
/// the quality report and the record dropped.
fn admit(
    configs: &BTreeMap<SystemId, u32>,
    policy: IngestPolicy,
    quality: &mut DataQualityReport,
    file: &'static str,
    system: SystemId,
    node: Option<NodeId>,
) -> Result<bool, CsvError> {
    let Some(&nodes) = configs.get(&system) else {
        if policy.recovers() {
            quality.unknown_system_records += 1;
            return Ok(false);
        }
        return Err(CsvError::Parse {
            line: 0,
            message: format!("record references unknown system {system}"),
        }
        .in_file(file));
    };
    if let Some(node) = node {
        if node.index() >= nodes as usize {
            if policy.recovers() {
                quality.unresolvable_nodes += 1;
                return Ok(false);
            }
            return Err(CsvError::Parse {
                line: 0,
                message: format!("node {node} out of range for {nodes}-node system {system}"),
            }
            .in_file(file));
        }
    }
    Ok(true)
}

/// Loads a trace directory (the layout written by
/// [`csv::save_trace`]) under the given ingestion policy, returning the
/// trace together with the full [`IngestReport`].
///
/// Under `Strict` this behaves like the historical
/// [`csv::load_trace`] — plus it rejects node ids outside a system's
/// configured node count, which previously corrupted the per-node index
/// (a release-mode panic). Under the recovering policies, malformed
/// lines are quarantined, consecutive duplicates deduplicated, and
/// out-of-range records dropped, with every incident counted.
///
/// # Errors
///
/// I/O failures opening or reading any file; parse and cross-record
/// violations only under `Strict`. Errors carry the source file name.
pub fn load_trace_with<P: AsRef<Path>>(
    dir: P,
    policy: IngestPolicy,
) -> Result<(Trace, IngestReport), CsvError> {
    let _span = hpcfail_obs::span("store.ingest.load");
    let dir = dir.as_ref();
    let mut report = IngestReport::new(policy);

    let open = |name: &str| {
        std::fs::File::open(dir.join(name)).map_err(|e| CsvError::from(e).in_file(name))
    };

    let systems = read_system_configs_with(open("systems.csv")?, "systems.csv", policy)?;
    let mut failures = read_failures_with(open("failures.csv")?, "failures.csv", policy)?;
    let jobs = read_jobs_with(open("jobs.csv")?, "jobs.csv", policy)?;
    let temperatures =
        read_temperatures_with(open("temperatures.csv")?, "temperatures.csv", policy)?;
    let maintenance = read_maintenance_with(open("maintenance.csv")?, "maintenance.csv", policy)?;
    let layout_rows = read_layout_rows_with(open("layout.csv")?, "layout.csv", policy)?;
    let neutron = read_neutron_with(open("neutron.csv")?, "neutron.csv", policy)?;

    report.rows_ok = (systems.records.len()
        + failures.records.len()
        + jobs.records.len()
        + temperatures.records.len()
        + maintenance.records.len()
        + layout_rows.records.len()
        + neutron.records.len()) as u64;
    for q in [
        &systems.quarantined,
        &failures.quarantined,
        &jobs.quarantined,
        &temperatures.quarantined,
        &maintenance.quarantined,
        &layout_rows.quarantined,
        &neutron.quarantined,
    ] {
        report.quarantined.extend(q.iter().cloned());
    }
    report.defaulted_fields = failures.defaulted_fields;
    report.quality.duplicate_records = systems.duplicates
        + failures.duplicates
        + jobs.duplicates
        + temperatures.duplicates
        + maintenance.duplicates
        + layout_rows.duplicates
        + neutron.duplicates;

    // Field-level audit: negative downtime. Recovering policies null
    // the field (the paper treats unknown repair times as missing).
    for f in failures.records.iter_mut() {
        if let Some(d) = f.downtime {
            if d.as_seconds() < 0 {
                report.quality.negative_downtime += 1;
                if policy.recovers() {
                    f.downtime = None;
                    report.defaulted_fields += 1;
                }
            }
        }
    }

    // Ordering audit: adjacent same-system inversions in file order.
    let mut last_time: BTreeMap<SystemId, Timestamp> = BTreeMap::new();
    for f in &failures.records {
        if let Some(&prev) = last_time.get(&f.system) {
            if f.time < prev {
                report.quality.out_of_order_timestamps += 1;
            }
        }
        last_time.insert(f.system, f.time);
    }

    // Repair-window audit: a node failing again before the previous
    // repair finished.
    let mut per_node: BTreeMap<(SystemId, NodeId), Vec<(i64, i64)>> = BTreeMap::new();
    for f in &failures.records {
        per_node.entry((f.system, f.node)).or_default().push((
            f.time.as_seconds(),
            f.downtime.map_or(0, |d| d.as_seconds().max(0)),
        ));
    }
    for events in per_node.values_mut() {
        events.sort_unstable();
        for w in events.windows(2) {
            if w[0].0 + w[0].1 > w[1].0 {
                report.quality.overlapping_repairs += 1;
            }
        }
    }

    // Resolve records against the configured systems and build.
    let configs: BTreeMap<SystemId, u32> =
        systems.records.iter().map(|c| (c.id, c.nodes)).collect();
    let mut builders: BTreeMap<SystemId, SystemTraceBuilder> = systems
        .records
        .into_iter()
        .map(|c| (c.id, SystemTraceBuilder::new(c)))
        .collect();
    let quality = &mut report.quality;
    for f in failures.records {
        if admit(
            &configs,
            policy,
            quality,
            "failures.csv",
            f.system,
            Some(f.node),
        )? {
            if let Some(b) = builders.get_mut(&f.system) {
                b.push_failure(f);
            }
        }
    }
    for j in jobs.records {
        if admit(&configs, policy, quality, "jobs.csv", j.system, None)? {
            if let Some(b) = builders.get_mut(&j.system) {
                b.push_job(j);
            }
        }
    }
    for t in temperatures.records {
        if admit(
            &configs,
            policy,
            quality,
            "temperatures.csv",
            t.system,
            Some(t.node),
        )? {
            if let Some(b) = builders.get_mut(&t.system) {
                b.push_temperature(t);
            }
        }
    }
    for m in maintenance.records {
        if admit(
            &configs,
            policy,
            quality,
            "maintenance.csv",
            m.system,
            Some(m.node),
        )? {
            if let Some(b) = builders.get_mut(&m.system) {
                b.push_maintenance(m);
            }
        }
    }
    let mut layouts: BTreeMap<SystemId, MachineLayout> = BTreeMap::new();
    for (system, node, loc) in layout_rows.records {
        if admit(&configs, policy, quality, "layout.csv", system, Some(node))? {
            layouts.entry(system).or_default().place(node, loc);
        }
    }
    for (system, layout) in layouts {
        if let Some(b) = builders.get_mut(&system) {
            b.layout(layout);
        }
    }

    let mut trace = Trace::new();
    for (_, b) in builders {
        trace.insert_system(b.build());
    }
    trace.set_neutron_samples(neutron.records);

    let q = report.quality;
    for (name, value) in [
        ("quality.negative_downtime", q.negative_downtime),
        ("quality.out_of_order_timestamps", q.out_of_order_timestamps),
        ("quality.unresolvable_nodes", q.unresolvable_nodes),
        ("quality.overlapping_repairs", q.overlapping_repairs),
        ("quality.duplicate_records", q.duplicate_records),
        ("quality.unknown_system_records", q.unknown_system_records),
    ] {
        hpcfail_obs::counter(name).add(value);
    }
    Ok((trace, report))
}

/// Load a trace, preferring a binary snapshot over CSV parsing.
///
/// If `snapshot` names a readable, checksum-verified `.hpcsnap` file the
/// trace is decoded from it in one bulk read — no CSV parse, no quality
/// audit — and the returned [`IngestReport`] is `None`. If the snapshot
/// is missing, corrupt or version-mismatched the load falls back to
/// [`load_trace_with`] on `dir` and the typed
/// [`SnapshotFallback`](crate::snapshot::SnapshotFallback) explaining
/// why is returned alongside, so callers can surface it as an audit
/// entry instead of a panic.
pub fn load_trace_snapshot_first<P: AsRef<Path>, Q: AsRef<Path>>(
    snapshot: P,
    dir: Q,
    policy: IngestPolicy,
) -> Result<
    (
        Trace,
        Option<IngestReport>,
        Option<crate::snapshot::SnapshotFallback>,
    ),
    CsvError,
> {
    match crate::snapshot::try_read_snapshot(snapshot) {
        crate::snapshot::SnapshotLoad::Loaded(trace) => Ok((*trace, None, None)),
        crate::snapshot::SnapshotLoad::Unusable(fallback) => {
            let (trace, report) = load_trace_with(dir, policy)?;
            Ok((trace, Some(report), Some(fallback)))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLEAN: &str = "system,node,time,root_cause,sub_cause,downtime\n\
                         20,0,1000,HW,HW:CPU,3600\n\
                         20,5,2000,ENV,ENV:UPS,\n\
                         20,7,3000,UNDET,-,\n";

    #[test]
    fn policy_labels_round_trip() {
        for policy in [
            IngestPolicy::Strict,
            IngestPolicy::Lenient,
            IngestPolicy::BestEffort,
        ] {
            assert_eq!(policy.label().parse::<IngestPolicy>().unwrap(), policy);
        }
        assert!("bogus".parse::<IngestPolicy>().is_err());
    }

    #[test]
    fn clean_input_agrees_with_strict_reader() {
        let strict = csv::read_failures(CLEAN.as_bytes()).unwrap();
        for policy in [
            IngestPolicy::Strict,
            IngestPolicy::Lenient,
            IngestPolicy::BestEffort,
        ] {
            let read = read_failures_with(CLEAN.as_bytes(), "failures.csv", policy).unwrap();
            assert_eq!(read.records, strict, "{policy}");
            assert!(read.quarantined.is_empty(), "{policy}");
            assert_eq!(read.defaulted_fields, 0, "{policy}");
        }
    }

    #[test]
    fn lenient_quarantines_exactly_the_bad_lines() {
        let dirty = "system,node,time,root_cause,sub_cause,downtime\n\
                     20,0,1000,HW,HW:CPU,3600\n\
                     20,not-a-node,1500,HW,-,\n\
                     20,5,2000,ENV,ENV:UPS,\n\
                     garbage\n\
                     20,7,3000,UNDET,-,\n";
        let read = read_failures_with(dirty.as_bytes(), "failures.csv", IngestPolicy::Lenient)
            .expect("lenient never fails on parse errors");
        assert_eq!(read.records.len(), 3);
        let lines: Vec<usize> = read.quarantined.iter().map(|q| q.line).collect();
        assert_eq!(lines, vec![3, 5]);
        assert!(read.quarantined[0].message.contains("node id"));
        assert_eq!(read.quarantined[1].raw, "garbage");
        assert!(read.quarantined[0].file == "failures.csv");

        let err =
            read_failures_with(dirty.as_bytes(), "failures.csv", IngestPolicy::Strict).unwrap_err();
        assert!(err.to_string().starts_with("failures.csv:"), "{err}");
    }

    #[test]
    fn invalid_utf8_is_quarantined_not_fatal() {
        let mut bytes = CLEAN.as_bytes().to_vec();
        bytes.extend_from_slice(b"20,9,4000,\xFF\xFE,-,\n");
        let read = read_failures_with(&bytes[..], "failures.csv", IngestPolicy::Lenient).unwrap();
        assert_eq!(read.records.len(), 3);
        assert_eq!(read.quarantined.len(), 1);
        assert_eq!(read.quarantined[0].line, 5);
        assert!(read.quarantined[0].message.contains("UTF-8"));
        assert!(read_failures_with(&bytes[..], "failures.csv", IngestPolicy::Strict).is_err());
    }

    #[test]
    fn best_effort_defaults_recoverable_fields() {
        let dirty = "system,node,time,root_cause,sub_cause,downtime\n\
                     20,0,1000,Gremlins,-,3600\n\
                     20,1,2000,NET,HW:CPU,\n\
                     20,2,3000,HW,HW:CPU,soon\n";
        let lenient =
            read_failures_with(dirty.as_bytes(), "failures.csv", IngestPolicy::Lenient).unwrap();
        assert_eq!(lenient.records.len(), 0);
        assert_eq!(lenient.quarantined.len(), 3);

        let best =
            read_failures_with(dirty.as_bytes(), "failures.csv", IngestPolicy::BestEffort).unwrap();
        assert_eq!(best.quarantined.len(), 0);
        assert_eq!(best.defaulted_fields, 3);
        assert_eq!(best.records[0].root_cause, RootCause::Undetermined);
        assert_eq!(best.records[1].sub_cause, SubCause::None);
        assert_eq!(best.records[2].downtime, None);
    }

    #[test]
    fn consecutive_duplicates_deduped_and_counted() {
        let dup = "system,node,time,root_cause,sub_cause,downtime\n\
                   20,0,1000,HW,HW:CPU,3600\n\
                   20,0,1000,HW,HW:CPU,3600\n\
                   20,5,2000,ENV,ENV:UPS,\n";
        let lenient =
            read_failures_with(dup.as_bytes(), "failures.csv", IngestPolicy::Lenient).unwrap();
        assert_eq!(lenient.records.len(), 2);
        assert_eq!(lenient.duplicates, 1);
        let strict =
            read_failures_with(dup.as_bytes(), "failures.csv", IngestPolicy::Strict).unwrap();
        assert_eq!(strict.records.len(), 3, "strict keeps today's behavior");
        assert_eq!(strict.duplicates, 1, "but still counts");
    }

    fn write_dir(dir: &std::path::Path, failures: &str, systems: &str) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        std::fs::write(dir.join("systems.csv"), systems)?;
        std::fs::write(dir.join("failures.csv"), failures)?;
        std::fs::write(dir.join("jobs.csv"), format!("{}\n", headers::JOBS))?;
        std::fs::write(
            dir.join("temperatures.csv"),
            format!("{}\n", headers::TEMPERATURES),
        )?;
        std::fs::write(
            dir.join("maintenance.csv"),
            format!("{}\n", headers::MAINTENANCE),
        )?;
        std::fs::write(dir.join("layout.csv"), format!("{}\n", headers::LAYOUT))?;
        std::fs::write(dir.join("neutron.csv"), format!("{}\n", headers::NEUTRON))?;
        Ok(())
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("hpcfail-ingest-{tag}-{}", std::process::id()))
    }

    const SYSTEMS: &str =
        "id,name,nodes,procs_per_node,hardware,start,end,has_layout,has_job_log,has_temperature\n\
                           20,sys20,8,4,SMP4,0,8640000,0,0,0\n";

    #[test]
    fn quality_pass_flags_and_recovers() {
        let failures = "system,node,time,root_cause,sub_cause,downtime\n\
                        20,0,5000,HW,HW:CPU,-3600\n\
                        20,1,4000,SW,SW:OS,\n\
                        20,99,4500,HW,-,\n\
                        77,0,100,HW,-,\n\
                        20,1,4100,HW,-,7200\n\
                        20,1,4200,NET,-,\n";
        let dir = temp_dir("quality");
        write_dir(&dir, failures, SYSTEMS).unwrap();

        let (trace, report) = load_trace_with(&dir, IngestPolicy::Lenient).unwrap();
        let q = report.quality;
        assert_eq!(q.negative_downtime, 1);
        assert!(q.out_of_order_timestamps >= 1, "5000 then 4000");
        assert_eq!(q.unresolvable_nodes, 1, "node 99 of an 8-node system");
        assert_eq!(q.unknown_system_records, 1, "system 77");
        assert_eq!(q.overlapping_repairs, 1, "7200s repair spans next failure");
        let sys = trace.system(SystemId::new(20)).unwrap();
        assert_eq!(sys.failures().len(), 4);
        assert!(
            sys.failures()
                .all(|f| f.downtime.is_none_or(|d| d.as_seconds() >= 0)),
            "negative downtime nulled"
        );

        // Strict rejects the out-of-range node with file context.
        let err = load_trace_with(&dir, IngestPolicy::Strict).unwrap_err();
        assert!(err.to_string().contains("failures.csv"), "{err}");
        assert!(err.to_string().contains("out of range"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strict_load_rejects_unknown_system_with_file_context() {
        let failures = "system,node,time,root_cause,sub_cause,downtime\n\
                        77,0,100,HW,-,\n";
        let dir = temp_dir("unknown");
        write_dir(&dir, failures, SYSTEMS).unwrap();
        let err = load_trace_with(&dir, IngestPolicy::Strict).unwrap_err();
        assert!(err.to_string().contains("failures.csv"), "{err}");
        assert!(err.to_string().contains("unknown system"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
