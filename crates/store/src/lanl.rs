//! Importer for CFDR-style LANL failure records.
//!
//! The public LANL release (LA-UR-05-7318, mirrored by the USENIX
//! Computer Failure Data Repository) ships failure records as
//! comma-separated rows with `MM/DD/YYYY HH:MM` timestamps and root
//! causes labeled `Facilities`, `Hardware`, `Human Error`, `Network`,
//! `Undetermined` and `Software`, plus free-text subcategories such as
//! `Memory Dimm` or `Power Supply`. This module maps that vocabulary
//! onto the `hpcfail` taxonomy so the real data — or any export in the
//! same style — can drive every analysis.
//!
//! Columns are located by header name (case-insensitive), so extra
//! columns in a site's export are ignored. The expected columns are:
//!
//! | header | content |
//! |---|---|
//! | `system` | system number |
//! | `nodenum` | node number within the system |
//! | `prob started` | `MM/DD/YYYY HH:MM` outage start |
//! | `prob fixed` | `MM/DD/YYYY HH:MM` repair completion (optional) |
//! | `cause` | one of the six LANL root-cause labels |
//! | `subcause` | optional subcategory (e.g. `Memory Dimm`) |
//!
//! Timestamps are converted to seconds since a configurable epoch date
//! (default 1996-01-01, the start of the LANL observation period).

use crate::csv::CsvError;
use crate::ingest::{FileRead, IngestPolicy};
use hpcfail_types::prelude::*;
use std::io::{BufRead, BufReader, Read};

/// Importer options: the epoch that maps calendar time onto trace time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LanlImportOptions {
    /// Calendar date (year, month, day) of trace time zero.
    pub epoch: (i32, u32, u32),
}

impl Default for LanlImportOptions {
    fn default() -> Self {
        // The LANL observation period starts in 1996.
        LanlImportOptions {
            epoch: (1996, 1, 1),
        }
    }
}

/// Days from civil date to 1970-01-01 (Howard Hinnant's algorithm),
/// valid for all Gregorian dates.
///
/// # Examples
///
/// ```
/// use hpcfail_store::lanl::days_from_civil;
///
/// assert_eq!(days_from_civil(1970, 1, 1), 0);
/// assert_eq!(days_from_civil(2000, 3, 1), 11017);
/// assert_eq!(days_from_civil(1969, 12, 31), -1);
/// ```
pub fn days_from_civil(y: i32, m: u32, d: u32) -> i64 {
    let y = i64::from(y) - i64::from(m <= 2);
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400; // [0, 399]
    let m = i64::from(m);
    let d = i64::from(d);
    let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
    era * 146_097 + doe - 719_468
}

/// Parses a LANL `MM/DD/YYYY HH:MM` datetime into seconds since the
/// Unix epoch (no time zone: LANL timestamps are local wall-clock, and
/// the analyses only use differences).
///
/// # Errors
///
/// Returns a description of the malformation.
pub fn parse_lanl_datetime(s: &str) -> Result<i64, String> {
    let s = s.trim();
    let (date, time) = s
        .split_once(' ')
        .ok_or_else(|| format!("missing time in {s:?}"))?;
    let mut date_parts = date.split('/');
    let (m, d, y) = (
        next_num(&mut date_parts, "month", date)?,
        next_num(&mut date_parts, "day", date)?,
        next_num(&mut date_parts, "year", date)?,
    );
    if date_parts.next().is_some() {
        return Err(format!("too many date fields in {date:?}"));
    }
    let mut time_parts = time.trim().split(':');
    let hh = next_num(&mut time_parts, "hour", time)?;
    let mm = next_num(&mut time_parts, "minute", time)?;
    let ss = match time_parts.next() {
        Some(v) => v
            .parse::<i64>()
            .map_err(|_| format!("bad seconds in {time:?}"))?,
        None => 0,
    };
    if !(1..=12).contains(&m) || !(1..=31).contains(&d) {
        return Err(format!("date {date:?} out of range"));
    }
    if !(0..24).contains(&hh) || !(0..60).contains(&mm) || !(0..60).contains(&ss) {
        return Err(format!("time {time:?} out of range"));
    }
    Ok(days_from_civil(y as i32, m as u32, d as u32) * 86_400 + hh * 3600 + mm * 60 + ss)
}

fn next_num<'a, I: Iterator<Item = &'a str>>(
    it: &mut I,
    what: &str,
    context: &str,
) -> Result<i64, String> {
    it.next()
        .ok_or_else(|| format!("missing {what} in {context:?}"))?
        .trim()
        .parse()
        .map_err(|_| format!("bad {what} in {context:?}"))
}

/// Maps a LANL root-cause label onto the taxonomy. `Facilities` is the
/// LANL name for what the paper calls environment failures.
pub fn map_root_cause(label: &str) -> Option<RootCause> {
    match label.trim().to_ascii_lowercase().as_str() {
        "facilities" | "environment" => Some(RootCause::Environment),
        "hardware" => Some(RootCause::Hardware),
        "human error" | "human" => Some(RootCause::HumanError),
        "network" => Some(RootCause::Network),
        "software" => Some(RootCause::Software),
        "undetermined" | "unknown" => Some(RootCause::Undetermined),
        _ => None,
    }
}

/// Maps a LANL subcategory label onto a [`SubCause`], given the root
/// cause. Unknown labels become the root's `Other` bucket (or
/// [`SubCause::None`] for roots without subcategories).
pub fn map_sub_cause(root: RootCause, label: &str) -> SubCause {
    let norm: String = label
        .trim()
        .to_ascii_lowercase()
        .chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .collect();
    if norm.is_empty() {
        return SubCause::None;
    }
    match root {
        RootCause::Hardware => {
            let component = match norm.as_str() {
                "cpu" | "processor" => HardwareComponent::Cpu,
                "memorydimm" | "memory" | "dimm" | "ram" => HardwareComponent::MemoryDimm,
                "nodeboard" | "motherboard" | "systemboard" => HardwareComponent::NodeBoard,
                "powersupply" | "psu" => HardwareComponent::PowerSupply,
                "fan" | "fanassembly" => HardwareComponent::Fan,
                "mscboard" | "msc" => HardwareComponent::MscBoard,
                "midplane" => HardwareComponent::Midplane,
                "nic" | "networkinterface" | "interconnectinterface" => HardwareComponent::Nic,
                "disk" | "diskdrive" | "harddrive" | "scsidrive" => HardwareComponent::Disk,
                _ => HardwareComponent::Other,
            };
            SubCause::Hardware(component)
        }
        RootCause::Software => {
            let cause = match norm.as_str() {
                "dst" | "distributedstoragesystem" | "distributedstorage" => SoftwareCause::Dst,
                "pfs" | "parallelfilesystem" => SoftwareCause::Pfs,
                "cfs" | "clusterfilesystem" => SoftwareCause::Cfs,
                "os" | "operatingsystem" | "kernel" => SoftwareCause::Os,
                "patchinstl" | "patchinstall" | "upgrade" => SoftwareCause::PatchInstall,
                _ => SoftwareCause::Other,
            };
            SubCause::Software(cause)
        }
        RootCause::Environment => {
            let cause = match norm.as_str() {
                "poweroutage" | "outage" => EnvironmentCause::PowerOutage,
                "powerspike" | "spike" => EnvironmentCause::PowerSpike,
                "ups" => EnvironmentCause::Ups,
                "chillers" | "chiller" | "ac" => EnvironmentCause::Chiller,
                _ => EnvironmentCause::Other,
            };
            SubCause::Environment(cause)
        }
        _ => SubCause::None,
    }
}

/// Column positions located from a LANL header row, plus the epoch
/// offset — everything needed to parse data rows.
struct LanlLayout {
    c_system: usize,
    c_node: usize,
    c_start: usize,
    c_fixed: Option<usize>,
    c_cause: usize,
    c_sub: Option<usize>,
    epoch_secs: i64,
}

impl LanlLayout {
    fn from_header(header: &str, options: LanlImportOptions) -> Result<Self, CsvError> {
        let columns: Vec<String> = header
            .split(',')
            .map(|h| h.trim().to_ascii_lowercase())
            .collect();
        let col = |names: &[&str]| -> Result<usize, CsvError> {
            names
                .iter()
                .find_map(|n| columns.iter().position(|c| c == n))
                .ok_or_else(|| CsvError::Parse {
                    line: 1,
                    message: format!("missing column (one of {names:?}) in header {header:?}"),
                })
        };
        let (ey, em, ed) = options.epoch;
        Ok(LanlLayout {
            c_system: col(&["system", "sys"])?,
            c_node: col(&["nodenum", "node", "nodenumz"])?,
            c_start: col(&["prob started", "prob_started", "started", "start time"])?,
            c_fixed: col(&["prob fixed", "prob_fixed", "fixed", "end time"]).ok(),
            c_cause: col(&["cause", "root cause", "category"])?,
            c_sub: col(&["subcause", "sub cause", "subcategory", "component"]).ok(),
            epoch_secs: days_from_civil(ey, em, ed) * 86_400,
        })
    }

    /// Parses one data row. `relaxed` applies the `BestEffort`
    /// conventions: an unknown root cause becomes `Undetermined` and a
    /// malformed repair timestamp becomes a missing downtime, each
    /// counted in the returned defaulted-field tally.
    fn parse_line(
        &self,
        line: &str,
        lineno: usize,
        relaxed: bool,
    ) -> Result<(FailureRecord, u32), CsvError> {
        let fields: Vec<&str> = line.split(',').collect();
        let get = |i: usize, what: &str| -> Result<&str, CsvError> {
            fields.get(i).copied().ok_or_else(|| CsvError::Parse {
                line: lineno,
                message: format!("row too short for {what}"),
            })
        };
        let parse_err = |message: String| CsvError::Parse {
            line: lineno,
            message,
        };
        let mut defaulted = 0u32;

        let system: u16 = get(self.c_system, "system")?
            .trim()
            .parse()
            .map_err(|_| parse_err(format!("bad system {:?}", fields[self.c_system])))?;
        let node: u32 = get(self.c_node, "node")?
            .trim()
            .parse()
            .map_err(|_| parse_err(format!("bad node {:?}", fields[self.c_node])))?;
        let start =
            parse_lanl_datetime(get(self.c_start, "start")?).map_err(&parse_err)? - self.epoch_secs;
        let cause_label = get(self.c_cause, "cause")?;
        let root = match map_root_cause(cause_label) {
            Some(root) => root,
            None if relaxed => {
                defaulted += 1;
                RootCause::Undetermined
            }
            None => return Err(parse_err(format!("unknown root cause {cause_label:?}"))),
        };
        let sub = match self.c_sub {
            Some(i) => map_sub_cause(root, fields.get(i).copied().unwrap_or("")),
            None => SubCause::None,
        };
        let mut record = FailureRecord::new(
            SystemId::new(system),
            NodeId::new(node),
            Timestamp::from_seconds(start),
            root,
            sub,
        );
        if let Some(i) = self.c_fixed {
            let raw = fields.get(i).copied().unwrap_or("").trim().to_owned();
            if !raw.is_empty() {
                match parse_lanl_datetime(&raw) {
                    Ok(t) => {
                        let fixed = t - self.epoch_secs;
                        if fixed >= start {
                            record = record.with_downtime(Duration::from_seconds(fixed - start));
                        }
                    }
                    Err(e) if relaxed => {
                        let _ = e;
                        defaulted += 1;
                    }
                    Err(e) => return Err(parse_err(e)),
                }
            }
        }
        Ok((record, defaulted))
    }
}

/// Reads CFDR-style LANL failure records.
///
/// Rows with unknown root causes or malformed timestamps are rejected
/// with their line number; blank lines are skipped.
///
/// # Errors
///
/// I/O failures and malformed rows.
pub fn read_lanl_failures<R: Read>(
    r: R,
    options: LanlImportOptions,
) -> Result<Vec<FailureRecord>, CsvError> {
    let read = read_lanl_failures_with(r, "lanl.csv", options, IngestPolicy::Strict)?;
    Ok(read.records)
}

/// Reads CFDR-style LANL failure records under an ingestion policy,
/// routing malformed rows through the same quarantine/audit machinery
/// as the native readers ([`crate::ingest`]): under
/// [`IngestPolicy::Lenient`] bad rows are set aside as
/// [`QuarantinedLine`](crate::ingest::QuarantinedLine)s and consecutive
/// exact duplicates dropped; under [`IngestPolicy::BestEffort`] unknown
/// root causes default to `Undetermined` and malformed repair
/// timestamps to a missing downtime before a row is given up on.
///
/// # Errors
///
/// I/O failures and a missing/defective header row always; per-row
/// parse failures only under [`IngestPolicy::Strict`].
pub fn read_lanl_failures_with<R: Read>(
    r: R,
    file: &str,
    options: LanlImportOptions,
    policy: IngestPolicy,
) -> Result<FileRead<FailureRecord>, CsvError> {
    let mut lines = BufReader::new(r).lines().enumerate();
    let (_, header) = lines.next().ok_or_else(|| CsvError::Parse {
        line: 1,
        message: "empty file".into(),
    })?;
    let layout = LanlLayout::from_header(&header?, options)?;
    let relaxed = matches!(policy, IngestPolicy::BestEffort);

    let mut out = FileRead {
        records: Vec::new(),
        quarantined: Vec::new(),
        defaulted_fields: 0,
        duplicates: 0,
    };
    for (idx, line) in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let lineno = idx + 1;
        match layout.parse_line(&line, lineno, relaxed) {
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
                    return Err(e);
                }
                let message = match &e {
                    CsvError::Parse { message, .. } => message.clone(),
                    other => other.to_string(),
                };
                out.quarantine(file, lineno, message, line.as_bytes());
            }
        }
    }
    hpcfail_obs::counter("store.lanl_rows_read").add(out.records.len() as u64);
    hpcfail_obs::counter("ingest.rows_ok").add(out.records.len() as u64);
    hpcfail_obs::counter("ingest.quarantined").add(out.quarantined.len() as u64);
    hpcfail_obs::counter("ingest.defaulted").add(out.defaulted_fields);
    Ok(out)
}

/// Reads CFDR-style LANL failure records from a file, attaching the
/// path to any error so "line 12" names which CSV it came from.
///
/// # Errors
///
/// Same as [`read_lanl_failures`], wrapped in
/// [`CsvError::InFile`].
pub fn read_lanl_failures_from_path<P: AsRef<std::path::Path>>(
    path: P,
    options: LanlImportOptions,
) -> Result<Vec<FailureRecord>, CsvError> {
    let path = path.as_ref();
    let file_label = path.display().to_string();
    let file = std::fs::File::open(path).map_err(|e| CsvError::from(e).in_file(&*file_label))?;
    read_lanl_failures(file, options).map_err(|e| e.in_file(file_label))
}

/// Assembles imported failure records into a [`Trace`](crate::trace::Trace), inferring a
/// minimal [`SystemConfig`] per system: node count from the number of
/// distinct node ids seen (raw ids are remapped onto a dense `0..n`
/// range), observation span from the first/last record (rounded out to
/// whole days, with one day of margin at the end).
///
/// LANL releases number nodes sparsely — a system whose two surviving
/// records name nodes 1000 and 5000 has two observed nodes, not 5001.
/// Counting `max(raw) + 1` inflated every per-node baseline denominator
/// and allocated index space for thousands of phantom nodes, so raw ids
/// are compacted (order-preserving) before the config is inferred.
///
/// The inferred configs default to 4-way SMP hardware; adjust group-2
/// systems via `numa_systems` so the group split matches your site.
pub fn assemble_trace(records: Vec<FailureRecord>, numa_systems: &[u16]) -> crate::trace::Trace {
    use std::collections::{BTreeMap, BTreeSet};
    let mut by_system: BTreeMap<SystemId, Vec<FailureRecord>> = BTreeMap::new();
    for r in records {
        by_system.entry(r.system).or_default().push(r);
    }
    let mut trace = crate::trace::Trace::new();
    for (system, mut records) in by_system {
        let distinct: BTreeSet<u32> = records.iter().map(|r| r.node.raw()).collect();
        let dense: BTreeMap<u32, u32> = distinct
            .iter()
            .enumerate()
            .map(|(i, &raw)| (raw, i as u32))
            .collect();
        for r in &mut records {
            r.node = NodeId::new(dense[&r.node.raw()]);
        }
        let nodes = dense.len().max(1) as u32;
        let first = records
            .iter()
            .map(|r| r.time)
            .min()
            .unwrap_or(Timestamp::EPOCH);
        let last = records
            .iter()
            .map(|r| r.time)
            .max()
            .unwrap_or(Timestamp::EPOCH);
        let start = Timestamp::from_seconds(first.day_index().min(0) * 86_400);
        let end = Timestamp::from_seconds((last.day_index() + 2) * 86_400);
        let numa = numa_systems.contains(&system.raw());
        let config = SystemConfig {
            id: system,
            name: format!("system-{}", system.raw()),
            nodes,
            procs_per_node: if numa { 128 } else { 4 },
            hardware: if numa {
                HardwareClass::Numa
            } else {
                HardwareClass::Smp4Way
            },
            start,
            end,
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        };
        let mut builder = crate::trace::SystemTraceBuilder::new(config);
        for r in records {
            builder.push_failure(r);
        }
        trace.insert_system(builder.build());
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn civil_date_reference_points() {
        assert_eq!(days_from_civil(1970, 1, 1), 0);
        assert_eq!(days_from_civil(1970, 1, 2), 1);
        assert_eq!(days_from_civil(1996, 1, 1), 9496);
        assert_eq!(days_from_civil(2000, 1, 1), 10957);
        // Leap-year behaviour.
        assert_eq!(
            days_from_civil(2000, 2, 29) + 1,
            days_from_civil(2000, 3, 1)
        );
        assert_eq!(
            days_from_civil(1900, 2, 28) + 1,
            days_from_civil(1900, 3, 1)
        ); // not a leap year
        assert_eq!(
            days_from_civil(2004, 2, 29) + 1,
            days_from_civil(2004, 3, 1)
        );
    }

    #[test]
    fn datetime_parsing() {
        // 2003-10-23 14:55 local.
        let secs = parse_lanl_datetime("10/23/2003 14:55").unwrap();
        assert_eq!(secs % 86_400, 14 * 3600 + 55 * 60);
        assert_eq!(secs / 86_400, days_from_civil(2003, 10, 23));
        // With seconds.
        assert_eq!(
            parse_lanl_datetime("01/01/1996 00:00:30").unwrap(),
            days_from_civil(1996, 1, 1) * 86_400 + 30
        );
    }

    #[test]
    fn datetime_rejects_malformed() {
        assert!(parse_lanl_datetime("10/23/2003").is_err()); // missing time
        assert!(parse_lanl_datetime("13/01/2003 10:00").is_err()); // bad month
        assert!(parse_lanl_datetime("10/32/2003 10:00").is_err()); // bad day
        assert!(parse_lanl_datetime("10/23/2003 25:00").is_err()); // bad hour
        assert!(parse_lanl_datetime("10/23/2003 10:61").is_err()); // bad minute
        assert!(parse_lanl_datetime("10-23-2003 10:00").is_err()); // wrong separator
    }

    #[test]
    fn root_cause_labels() {
        assert_eq!(map_root_cause("Facilities"), Some(RootCause::Environment));
        assert_eq!(map_root_cause("Human Error"), Some(RootCause::HumanError));
        assert_eq!(map_root_cause(" hardware "), Some(RootCause::Hardware));
        assert_eq!(map_root_cause("Meteor"), None);
    }

    #[test]
    fn sub_cause_labels() {
        assert_eq!(
            map_sub_cause(RootCause::Hardware, "Memory Dimm"),
            SubCause::Hardware(HardwareComponent::MemoryDimm)
        );
        assert_eq!(
            map_sub_cause(RootCause::Hardware, "Power Supply"),
            SubCause::Hardware(HardwareComponent::PowerSupply)
        );
        assert_eq!(
            map_sub_cause(RootCause::Hardware, "Widget"),
            SubCause::Hardware(HardwareComponent::Other)
        );
        assert_eq!(
            map_sub_cause(RootCause::Software, "Parallel File System"),
            SubCause::Software(SoftwareCause::Pfs)
        );
        assert_eq!(
            map_sub_cause(RootCause::Environment, "Power Outage"),
            SubCause::Environment(EnvironmentCause::PowerOutage)
        );
        assert_eq!(map_sub_cause(RootCause::Network, "switch"), SubCause::None);
        assert_eq!(map_sub_cause(RootCause::Hardware, "  "), SubCause::None);
    }

    const SAMPLE: &str = "\
System,NodeNum,Prob Started,Prob Fixed,Cause,SubCause
20,0,10/23/2003 14:55,10/23/2003 18:20,Hardware,Memory Dimm
20,17,11/02/2003 03:10,,Facilities,Power Outage
2,5,01/15/1997 09:00,01/15/1997 10:30,Human Error,
";

    #[test]
    fn sample_rows_imported() {
        let records = read_lanl_failures(SAMPLE.as_bytes(), LanlImportOptions::default()).unwrap();
        assert_eq!(records.len(), 3);

        let r0 = &records[0];
        assert_eq!(r0.system, SystemId::new(20));
        assert_eq!(r0.node, NodeId::new(0));
        assert_eq!(r0.root_cause, RootCause::Hardware);
        assert_eq!(
            r0.sub_cause,
            SubCause::Hardware(HardwareComponent::MemoryDimm)
        );
        assert_eq!(
            r0.downtime,
            Some(Duration::from_seconds(3 * 3600 + 25 * 60))
        );
        // 2003-10-23 is day 2852 after 1996-01-01.
        assert_eq!(
            r0.time.as_seconds() / 86_400,
            days_from_civil(2003, 10, 23) - days_from_civil(1996, 1, 1)
        );

        let r1 = &records[1];
        assert_eq!(r1.root_cause, RootCause::Environment);
        assert_eq!(
            r1.sub_cause,
            SubCause::Environment(EnvironmentCause::PowerOutage)
        );
        assert_eq!(r1.downtime, None);

        let r2 = &records[2];
        assert_eq!(r2.root_cause, RootCause::HumanError);
        assert_eq!(r2.sub_cause, SubCause::None);
    }

    #[test]
    fn header_is_case_insensitive_and_reorderable() {
        let csv = "\
cause,prob started,system,nodenum
Software,05/05/2000 12:00,8,3
";
        let records = read_lanl_failures(csv.as_bytes(), LanlImportOptions::default()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].system, SystemId::new(8));
        assert_eq!(records[0].root_cause, RootCause::Software);
    }

    #[test]
    fn missing_column_reported() {
        let csv = "system,nodenum\n1,2\n";
        let err = read_lanl_failures(csv.as_bytes(), LanlImportOptions::default()).unwrap_err();
        assert!(err.to_string().contains("missing column"), "{err}");
    }

    #[test]
    fn bad_rows_reported_with_line_numbers() {
        let csv = "\
system,nodenum,prob started,cause
20,0,10/23/2003 14:55,Gremlins
";
        let err = read_lanl_failures(csv.as_bytes(), LanlImportOptions::default()).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(err.to_string().contains("Gremlins"), "{err}");
    }

    #[test]
    fn assemble_infers_configs() {
        let records = read_lanl_failures(SAMPLE.as_bytes(), LanlImportOptions::default()).unwrap();
        let trace = assemble_trace(records, &[2]);
        assert_eq!(trace.len(), 2);
        let sys20 = trace.system(SystemId::new(20)).unwrap();
        assert_eq!(sys20.config().nodes, 2); // two distinct nodes (0, 17)
        assert_eq!(sys20.config().group(), SystemGroup::Group1);
        assert_eq!(sys20.failures().len(), 2);
        let sys2 = trace.system(SystemId::new(2)).unwrap();
        assert_eq!(sys2.config().group(), SystemGroup::Group2);
        assert_eq!(sys2.config().procs_per_node, 128);
        // Spans cover the records.
        for s in trace.systems() {
            for f in s.failures() {
                assert!(f.time >= s.config().start && f.time < s.config().end);
            }
        }
    }

    #[test]
    fn assemble_compacts_gappy_node_ids() {
        // Regression: sparse raw node numbering (1000, 5000) used to
        // infer 5001 nodes, inflating every per-node denominator.
        let csv = "\
system,nodenum,prob started,cause
9,1000,10/23/2003 14:55,Hardware
9,5000,11/02/2003 03:10,Software
9,1000,11/03/2003 08:00,Hardware
";
        let records = read_lanl_failures(csv.as_bytes(), LanlImportOptions::default()).unwrap();
        let trace = assemble_trace(records, &[]);
        let sys = trace.system(SystemId::new(9)).unwrap();
        assert_eq!(sys.config().nodes, 2);
        // Remap is order-preserving: 1000 -> 0, 5000 -> 1.
        assert_eq!(sys.node_failure_count(NodeId::new(0)), 2);
        assert_eq!(sys.node_failure_count(NodeId::new(1)), 1);
        assert!(sys.failures().all(|f| f.node.raw() < 2));
    }

    #[test]
    fn lenient_import_quarantines_bad_rows() {
        let csv = "\
System,NodeNum,Prob Started,Prob Fixed,Cause,SubCause
20,0,10/23/2003 14:55,10/23/2003 18:20,Hardware,Memory Dimm
20,zero,10/24/2003 09:00,,Hardware,
20,1,11/02/2003 03:10,,Gremlins,
20,2,11/03/2003 08:00,,Software,OS
";
        let read = read_lanl_failures_with(
            csv.as_bytes(),
            "upload.csv",
            LanlImportOptions::default(),
            IngestPolicy::Lenient,
        )
        .expect("lenient never fails on parse errors");
        assert_eq!(read.records.len(), 2);
        let lines: Vec<usize> = read.quarantined.iter().map(|q| q.line).collect();
        assert_eq!(lines, vec![3, 4]);
        assert_eq!(read.quarantined[0].file, "upload.csv");
        assert!(read.quarantined[1].message.contains("Gremlins"));

        // Strict matches the historical reader: first bad row is fatal.
        let err = read_lanl_failures(csv.as_bytes(), LanlImportOptions::default()).unwrap_err();
        assert!(err.to_string().contains("line 3"), "{err}");
    }

    #[test]
    fn best_effort_import_defaults_unknown_causes() {
        let csv = "\
System,NodeNum,Prob Started,Prob Fixed,Cause
20,0,10/23/2003 14:55,not-a-time,Hardware
20,1,11/02/2003 03:10,,Gremlins
";
        let read = read_lanl_failures_with(
            csv.as_bytes(),
            "upload.csv",
            LanlImportOptions::default(),
            IngestPolicy::BestEffort,
        )
        .unwrap();
        assert_eq!(read.records.len(), 2);
        assert_eq!(read.quarantined.len(), 0);
        assert_eq!(read.defaulted_fields, 2);
        assert_eq!(read.records[0].downtime, None, "bad repair time dropped");
        assert_eq!(read.records[1].root_cause, RootCause::Undetermined);
    }

    #[test]
    fn consecutive_duplicate_rows_deduped_under_recovery() {
        let csv = "\
System,NodeNum,Prob Started,Cause
20,0,10/23/2003 14:55,Hardware
20,0,10/23/2003 14:55,Hardware
20,1,10/24/2003 10:00,Software
";
        let lenient = read_lanl_failures_with(
            csv.as_bytes(),
            "upload.csv",
            LanlImportOptions::default(),
            IngestPolicy::Lenient,
        )
        .unwrap();
        assert_eq!(lenient.records.len(), 2);
        assert_eq!(lenient.duplicates, 1);
        let strict = read_lanl_failures(csv.as_bytes(), LanlImportOptions::default()).unwrap();
        assert_eq!(strict.len(), 3, "strict keeps today's behavior");
    }

    #[test]
    fn custom_epoch_shifts_timestamps() {
        let csv = "\
system,nodenum,prob started,cause
1,0,01/02/2000 00:00,Hardware
";
        let records = read_lanl_failures(
            csv.as_bytes(),
            LanlImportOptions {
                epoch: (2000, 1, 1),
            },
        )
        .unwrap();
        assert_eq!(records[0].time, Timestamp::from_days(1.0));
    }
}
