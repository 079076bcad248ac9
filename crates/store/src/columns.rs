//! Struct-of-arrays columnar storage for failure and maintenance events.
//!
//! These columns are the only stored form of the two event streams.
//! The hot query kernels — per-node day vectors, window membership
//! tests, baseline estimation — touch one or two fields per event, so
//! each field lives in its own timestamp-sorted array and kernels scan
//! contiguous primitive columns instead of row structs:
//!
//! - `times` / `nodes` / `roots` / `subs` / `downtimes` — the failure
//!   record fields, one array per field, all sorted by `(time, node)` in
//!   the order [`crate::trace::SystemTraceBuilder::build`] establishes;
//! - `days` — the precomputed day index of each event relative to the
//!   system's observation start, so day-vector extraction is a gather
//!   instead of a per-event `div_euclid`;
//! - a CSR (compressed-sparse-row) postings index `node_ptr`/`node_post`
//!   mapping each node to its events in time order;
//! - `node_class_mask` — one bitmask per node recording which root-cause
//!   categories appear on that node at all, so class-restricted scans can
//!   skip nodes without touching their postings.
//!
//! Root and sub-causes are stored as compact integer codes
//! ([`root_code`], [`sub_code`]); class matching happens on the codes via
//! [`ClassCode`], never on decoded enums. [`FailureColumns::record`] and
//! [`MaintenanceColumns::record`] decode one row for cold callers.

use hpcfail_types::prelude::*;
use hpcfail_types::time::SECONDS_PER_DAY;
use std::fmt;

/// Compact integer code for a [`RootCause`] (declaration order).
pub const fn root_code(root: RootCause) -> u8 {
    match root {
        RootCause::Environment => 0,
        RootCause::Hardware => 1,
        RootCause::HumanError => 2,
        RootCause::Network => 3,
        RootCause::Software => 4,
        RootCause::Undetermined => 5,
    }
}

/// Decodes a [`root_code`]; `None` for out-of-range codes.
pub const fn root_from_code(code: u8) -> Option<RootCause> {
    Some(match code {
        0 => RootCause::Environment,
        1 => RootCause::Hardware,
        2 => RootCause::HumanError,
        3 => RootCause::Network,
        4 => RootCause::Software,
        5 => RootCause::Undetermined,
        _ => return None,
    })
}

const SUB_NS_NONE: u16 = 0;
const SUB_NS_HW: u16 = 1 << 8;
const SUB_NS_SW: u16 = 2 << 8;
const SUB_NS_ENV: u16 = 3 << 8;

const fn hw_code(c: HardwareComponent) -> u16 {
    match c {
        HardwareComponent::Cpu => 0,
        HardwareComponent::MemoryDimm => 1,
        HardwareComponent::NodeBoard => 2,
        HardwareComponent::PowerSupply => 3,
        HardwareComponent::Fan => 4,
        HardwareComponent::MscBoard => 5,
        HardwareComponent::Midplane => 6,
        HardwareComponent::Nic => 7,
        HardwareComponent::Disk => 8,
        HardwareComponent::Other => 9,
    }
}

const fn sw_code(c: SoftwareCause) -> u16 {
    match c {
        SoftwareCause::Dst => 0,
        SoftwareCause::Pfs => 1,
        SoftwareCause::Cfs => 2,
        SoftwareCause::Os => 3,
        SoftwareCause::PatchInstall => 4,
        SoftwareCause::Other => 5,
    }
}

const fn env_code(c: EnvironmentCause) -> u16 {
    match c {
        EnvironmentCause::PowerOutage => 0,
        EnvironmentCause::PowerSpike => 1,
        EnvironmentCause::Ups => 2,
        EnvironmentCause::Chiller => 3,
        EnvironmentCause::Other => 4,
    }
}

/// Compact integer code for a [`SubCause`]: the high byte is the
/// namespace (none/hardware/software/environment), the low byte the
/// component within it.
pub const fn sub_code(sub: SubCause) -> u16 {
    match sub {
        SubCause::None => SUB_NS_NONE,
        SubCause::Hardware(c) => SUB_NS_HW | hw_code(c),
        SubCause::Software(c) => SUB_NS_SW | sw_code(c),
        SubCause::Environment(c) => SUB_NS_ENV | env_code(c),
    }
}

/// Decodes a [`sub_code`]; `None` for codes no [`SubCause`] produces.
pub fn sub_from_code(code: u16) -> Option<SubCause> {
    let low = code & 0xff;
    match code & 0xff00 {
        SUB_NS_NONE if low == 0 => Some(SubCause::None),
        SUB_NS_HW => Some(SubCause::Hardware(match low {
            0 => HardwareComponent::Cpu,
            1 => HardwareComponent::MemoryDimm,
            2 => HardwareComponent::NodeBoard,
            3 => HardwareComponent::PowerSupply,
            4 => HardwareComponent::Fan,
            5 => HardwareComponent::MscBoard,
            6 => HardwareComponent::Midplane,
            7 => HardwareComponent::Nic,
            8 => HardwareComponent::Disk,
            9 => HardwareComponent::Other,
            _ => return None,
        })),
        SUB_NS_SW => Some(SubCause::Software(match low {
            0 => SoftwareCause::Dst,
            1 => SoftwareCause::Pfs,
            2 => SoftwareCause::Cfs,
            3 => SoftwareCause::Os,
            4 => SoftwareCause::PatchInstall,
            5 => SoftwareCause::Other,
            _ => return None,
        })),
        SUB_NS_ENV => Some(SubCause::Environment(match low {
            0 => EnvironmentCause::PowerOutage,
            1 => EnvironmentCause::PowerSpike,
            2 => EnvironmentCause::Ups,
            3 => EnvironmentCause::Chiller,
            4 => EnvironmentCause::Other,
            _ => return None,
        })),
        _ => None,
    }
}

/// Downtime sentinel: `None` is stored as `-1` in the downtime column
/// (real downtimes are non-negative second counts).
pub const NO_DOWNTIME: i64 = -1;

/// A [`FailureClass`] compiled to the column codes, so per-event matching
/// is an integer compare instead of an enum walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClassCode {
    /// Matches every event.
    Any,
    /// Matches events whose root-cause code equals the payload.
    Root(u8),
    /// Matches events whose sub-cause code equals the payload.
    Sub(u16),
}

impl ClassCode {
    /// Compiles a [`FailureClass`] to its column-code matcher.
    pub fn new(class: FailureClass) -> Self {
        match class {
            FailureClass::Any => ClassCode::Any,
            FailureClass::Root(r) => ClassCode::Root(root_code(r)),
            FailureClass::Hw(c) => ClassCode::Sub(sub_code(SubCause::Hardware(c))),
            FailureClass::Sw(c) => ClassCode::Sub(sub_code(SubCause::Software(c))),
            FailureClass::Env(c) => ClassCode::Sub(sub_code(SubCause::Environment(c))),
        }
    }

    /// `true` when the event with the given codes belongs to this class.
    #[inline]
    pub fn matches(self, root: u8, sub: u16) -> bool {
        match self {
            ClassCode::Any => true,
            ClassCode::Root(r) => root == r,
            ClassCode::Sub(s) => sub == s,
        }
    }
}

/// Error returned when raw column data (e.g. from a snapshot) fails
/// validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnError(pub String);

impl fmt::Display for ColumnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid column data: {}", self.0)
    }
}

impl std::error::Error for ColumnError {}

/// Day index of each time relative to the observation `start`.
fn day_column(times: &[i64], start: Timestamp) -> Vec<i64> {
    let start_secs = start.as_seconds();
    times
        .iter()
        .map(|t| (t - start_secs).div_euclid(SECONDS_PER_DAY))
        .collect()
}

/// CSR postings (`node_ptr`, `node_post`) mapping each node to its event
/// indices in order, built by counting sort. Every node must be below
/// `node_count`.
fn node_postings_index(nodes: &[u32], node_count: u32) -> (Vec<u32>, Vec<u32>) {
    let n = node_count as usize;
    let mut counts = vec![0u32; n + 1];
    for &node in nodes {
        counts[node as usize + 1] += 1;
    }
    for i in 0..n {
        counts[i + 1] += counts[i];
    }
    let mut post = vec![0u32; nodes.len()];
    let mut cursor = counts.clone();
    for (i, &node) in nodes.iter().enumerate() {
        let slot = &mut cursor[node as usize];
        post[*slot as usize] = i as u32;
        *slot += 1;
    }
    (counts, post)
}

/// Timestamp-sorted struct-of-arrays storage for one system's failures.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FailureColumns {
    times: Vec<i64>,
    nodes: Vec<u32>,
    roots: Vec<u8>,
    subs: Vec<u16>,
    downtimes: Vec<i64>,
    days: Vec<i64>,
    node_ptr: Vec<u32>,
    node_post: Vec<u32>,
    node_class_mask: Vec<u8>,
}

impl FailureColumns {
    /// Builds columns from records already sorted by `(time, node)`.
    ///
    /// `node_count` is the system's node count; every record's node index
    /// must be below it (the trace builder enforces this upstream).
    /// `start` is the observation start used for the precomputed day
    /// column.
    pub fn from_records(records: &[FailureRecord], node_count: u32, start: Timestamp) -> Self {
        debug_assert!(
            records
                .windows(2)
                .all(|w| (w[0].time, w[0].node) <= (w[1].time, w[1].node)),
            "records must be sorted by (time, node)"
        );
        FailureColumns::assemble(
            records.iter().map(|r| r.time.as_seconds()).collect(),
            records.iter().map(|r| r.node.raw()).collect(),
            records.iter().map(|r| root_code(r.root_cause)).collect(),
            records.iter().map(|r| sub_code(r.sub_cause)).collect(),
            records
                .iter()
                .map(|r| r.downtime.map_or(NO_DOWNTIME, |d| d.as_seconds()))
                .collect(),
            node_count,
            start,
        )
    }

    /// Reassembles columns from raw arrays (the snapshot load path),
    /// validating codes, sortedness and node ranges, then rebuilding the
    /// derived day column and postings index.
    ///
    /// # Errors
    ///
    /// [`ColumnError`] when array lengths disagree, a code does not
    /// decode, a node index is out of range, or the arrays are not
    /// `(time, node)`-sorted.
    pub fn from_raw_parts(
        times: Vec<i64>,
        nodes: Vec<u32>,
        roots: Vec<u8>,
        subs: Vec<u16>,
        downtimes: Vec<i64>,
        node_count: u32,
        start: Timestamp,
    ) -> Result<Self, ColumnError> {
        let len = times.len();
        if nodes.len() != len || roots.len() != len || subs.len() != len || downtimes.len() != len {
            return Err(ColumnError(format!(
                "column length mismatch: times {len}, nodes {}, roots {}, subs {}, downtimes {}",
                nodes.len(),
                roots.len(),
                subs.len(),
                downtimes.len()
            )));
        }
        for (i, &code) in roots.iter().enumerate() {
            if root_from_code(code).is_none() {
                return Err(ColumnError(format!(
                    "bad root-cause code {code} at row {i}"
                )));
            }
        }
        for (i, &code) in subs.iter().enumerate() {
            if sub_from_code(code).is_none() {
                return Err(ColumnError(format!("bad sub-cause code {code} at row {i}")));
            }
        }
        for (i, (&root, &sub)) in roots.iter().zip(&subs).enumerate() {
            let consistent = sub_from_code(sub)
                .zip(root_from_code(root))
                .is_some_and(|(s, r)| s.consistent_with(r));
            if !consistent {
                return Err(ColumnError(format!(
                    "sub-cause code {sub} inconsistent with root code {root} at row {i}"
                )));
            }
        }
        for (i, &node) in nodes.iter().enumerate() {
            if node >= node_count {
                return Err(ColumnError(format!(
                    "node {node} out of range (system has {node_count} nodes) at row {i}"
                )));
            }
        }
        for (i, &dt) in downtimes.iter().enumerate() {
            if dt < NO_DOWNTIME {
                return Err(ColumnError(format!("bad downtime {dt} at row {i}")));
            }
        }
        if times
            .iter()
            .zip(&nodes)
            .zip(times.iter().zip(&nodes).skip(1))
            .any(|((t0, n0), (t1, n1))| (t0, n0) > (t1, n1))
        {
            return Err(ColumnError("rows not sorted by (time, node)".into()));
        }
        Ok(FailureColumns::assemble(
            times, nodes, roots, subs, downtimes, node_count, start,
        ))
    }

    /// Derives the day column, postings index and class masks from the
    /// primary columns.
    fn assemble(
        times: Vec<i64>,
        nodes: Vec<u32>,
        roots: Vec<u8>,
        subs: Vec<u16>,
        downtimes: Vec<i64>,
        node_count: u32,
        start: Timestamp,
    ) -> Self {
        let (node_ptr, node_post) = node_postings_index(&nodes, node_count);
        let mut node_class_mask = vec![0u8; node_count as usize];
        for (&node, &root) in nodes.iter().zip(&roots) {
            node_class_mask[node as usize] |= 1 << root;
        }
        FailureColumns {
            days: day_column(&times, start),
            times,
            nodes,
            roots,
            subs,
            downtimes,
            node_ptr,
            node_post,
            node_class_mask,
        }
    }

    /// Heap bytes held by the column arrays (primary storage plus the
    /// derived day column and postings index).
    pub fn resident_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.times.as_slice())
            + std::mem::size_of_val(self.nodes.as_slice())
            + std::mem::size_of_val(self.roots.as_slice())
            + std::mem::size_of_val(self.subs.as_slice())
            + std::mem::size_of_val(self.downtimes.as_slice())
            + std::mem::size_of_val(self.days.as_slice())
            + std::mem::size_of_val(self.node_ptr.as_slice())
            + std::mem::size_of_val(self.node_post.as_slice())
            + std::mem::size_of_val(self.node_class_mask.as_slice())) as u64
    }

    /// Number of failure events.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when there are no events.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Number of nodes the postings index covers.
    pub fn node_count(&self) -> u32 {
        (self.node_ptr.len().saturating_sub(1)) as u32
    }

    /// Event times in seconds, sorted by `(time, node)`.
    pub fn times(&self) -> &[i64] {
        &self.times
    }

    /// Event node ids, aligned with [`FailureColumns::times`].
    pub fn nodes(&self) -> &[u32] {
        &self.nodes
    }

    /// Root-cause codes ([`root_code`]), aligned with the time column.
    pub fn roots(&self) -> &[u8] {
        &self.roots
    }

    /// Sub-cause codes ([`sub_code`]), aligned with the time column.
    pub fn subs(&self) -> &[u16] {
        &self.subs
    }

    /// Downtimes in seconds ([`NO_DOWNTIME`] for absent), aligned with
    /// the time column.
    pub fn downtimes(&self) -> &[i64] {
        &self.downtimes
    }

    /// Precomputed day index of each event relative to observation start.
    pub fn days(&self) -> &[i64] {
        &self.days
    }

    /// Event indices for `node`, in time order.
    #[inline]
    pub fn node_postings(&self, node: NodeId) -> &[u32] {
        let n = node.index();
        if n + 1 >= self.node_ptr.len() {
            return &[];
        }
        &self.node_post[self.node_ptr[n] as usize..self.node_ptr[n + 1] as usize]
    }

    /// Number of events on `node`.
    #[inline]
    pub fn node_event_count(&self, node: NodeId) -> usize {
        self.node_postings(node).len()
    }

    /// `true` when `node` has at least one event whose root cause could
    /// match `code`. A cheap pre-filter: `false` means no posting can
    /// match; `true` still requires per-event checks for sub-cause
    /// classes.
    #[inline]
    pub fn node_may_match(&self, node: NodeId, code: ClassCode) -> bool {
        match code {
            ClassCode::Any => self.node_event_count(node) > 0,
            ClassCode::Root(r) => self
                .node_class_mask
                .get(node.index())
                .is_some_and(|m| m & (1 << r) != 0),
            ClassCode::Sub(s) => {
                // The namespace byte maps back to a root-cause category
                // (events with SubCause::None never carry it).
                let root = match s & 0xff00 {
                    SUB_NS_HW => root_code(RootCause::Hardware),
                    SUB_NS_SW => root_code(RootCause::Software),
                    SUB_NS_ENV => root_code(RootCause::Environment),
                    _ => return self.node_event_count(node) > 0,
                };
                self.node_class_mask
                    .get(node.index())
                    .is_some_and(|m| m & (1 << root) != 0)
            }
        }
    }

    /// Appends the day index of every event on `node` matching `code` to
    /// `out` (non-decreasing, possibly with duplicates). Returns
    /// `(scanned, matched)` event counts for scan accounting.
    pub fn collect_node_days(
        &self,
        node: NodeId,
        code: ClassCode,
        out: &mut Vec<i64>,
    ) -> (usize, usize) {
        let postings = self.node_postings(node);
        if postings.is_empty() || !self.node_may_match(node, code) {
            return (postings.len(), 0);
        }
        let before = out.len();
        match code {
            ClassCode::Any => {
                out.extend(postings.iter().map(|&i| self.days[i as usize]));
            }
            ClassCode::Root(r) => {
                out.extend(
                    postings
                        .iter()
                        .filter(|&&i| self.roots[i as usize] == r)
                        .map(|&i| self.days[i as usize]),
                );
            }
            ClassCode::Sub(s) => {
                out.extend(
                    postings
                        .iter()
                        .filter(|&&i| self.subs[i as usize] == s)
                        .map(|&i| self.days[i as usize]),
                );
            }
        }
        (postings.len(), out.len() - before)
    }

    /// Counts events on `node` matching `code` with
    /// `after < time <= until` (both in seconds).
    pub fn count_in_window(&self, node: NodeId, code: ClassCode, after: i64, until: i64) -> usize {
        if !self.node_may_match(node, code) {
            return 0;
        }
        let postings = self.node_postings(node);
        let from = postings.partition_point(|&i| self.times[i as usize] <= after);
        postings[from..]
            .iter()
            .take_while(|&&i| self.times[i as usize] <= until)
            .filter(|&&i| self.row_matches(i as usize, code))
            .count()
    }

    /// `true` when `node` has any event matching `code` with
    /// `after < time <= until`.
    pub fn any_in_window(&self, node: NodeId, code: ClassCode, after: i64, until: i64) -> bool {
        if !self.node_may_match(node, code) {
            return false;
        }
        let postings = self.node_postings(node);
        let from = postings.partition_point(|&i| self.times[i as usize] <= after);
        postings[from..]
            .iter()
            .take_while(|&&i| self.times[i as usize] <= until)
            .any(|&i| self.row_matches(i as usize, code))
    }

    /// Time of event `i`.
    #[inline]
    pub fn time(&self, i: usize) -> Timestamp {
        Timestamp::from_seconds(self.times[i])
    }

    /// Node of event `i`.
    #[inline]
    pub fn node(&self, i: usize) -> NodeId {
        NodeId::new(self.nodes[i])
    }

    /// Root cause of event `i`.
    #[inline]
    pub fn root(&self, i: usize) -> RootCause {
        root_from_code(self.roots[i]).expect("validated root code")
    }

    /// `true` when event `i` belongs to the class `code`.
    #[inline]
    pub fn row_matches(&self, i: usize, code: ClassCode) -> bool {
        code.matches(self.roots[i], self.subs[i])
    }

    /// Indices of the events matching `code`, in `(time, node)` order.
    pub fn rows_matching(&self, code: ClassCode) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(move |&i| self.row_matches(i, code))
    }

    /// Number of events on `node` matching `code`.
    pub fn node_count_matching(&self, node: NodeId, code: ClassCode) -> usize {
        if !self.node_may_match(node, code) {
            return 0;
        }
        self.node_postings(node)
            .iter()
            .filter(|&&i| self.row_matches(i as usize, code))
            .count()
    }

    /// Decodes row `i` as a [`FailureRecord`] owned by `system`.
    pub fn record(&self, i: usize, system: SystemId) -> FailureRecord {
        let sub = sub_from_code(self.subs[i]).expect("validated sub code");
        let mut r = FailureRecord::new(system, self.node(i), self.time(i), self.root(i), sub);
        if self.downtimes[i] != NO_DOWNTIME {
            r = r.with_downtime(Duration::from_seconds(self.downtimes[i]));
        }
        r
    }
}

/// Timestamp-sorted struct-of-arrays storage for one system's
/// maintenance events, with CSR node postings and a precomputed day
/// column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MaintenanceColumns {
    times: Vec<i64>,
    nodes: Vec<u32>,
    hardware: Vec<bool>,
    scheduled: Vec<bool>,
    days: Vec<i64>,
    node_ptr: Vec<u32>,
    node_post: Vec<u32>,
}

impl MaintenanceColumns {
    /// Builds columns from records already sorted by `(time, node)`.
    ///
    /// # Panics
    ///
    /// Panics if the records are unsorted or a node is out of range —
    /// the trace builder rules out both.
    pub fn from_records(records: &[MaintenanceRecord], node_count: u32, start: Timestamp) -> Self {
        MaintenanceColumns::from_raw_parts(
            records.iter().map(|r| r.time.as_seconds()).collect(),
            records.iter().map(|r| r.node.raw()).collect(),
            records.iter().map(|r| r.hardware_related).collect(),
            records.iter().map(|r| r.scheduled).collect(),
            node_count,
            start,
        )
        .expect("builder maintenance is sorted and in range")
    }

    /// Reassembles columns from raw arrays (the snapshot load path),
    /// validating lengths, node ranges and `(time, node)` order, then
    /// building the day column and postings index.
    ///
    /// # Errors
    ///
    /// [`ColumnError`] when array lengths disagree, a node index is out
    /// of range, or the arrays are not `(time, node)`-sorted.
    pub fn from_raw_parts(
        times: Vec<i64>,
        nodes: Vec<u32>,
        hardware: Vec<bool>,
        scheduled: Vec<bool>,
        node_count: u32,
        start: Timestamp,
    ) -> Result<Self, ColumnError> {
        let len = times.len();
        if nodes.len() != len || hardware.len() != len || scheduled.len() != len {
            return Err(ColumnError(format!(
                "maintenance column length mismatch: times {len}, nodes {}, hardware {}, scheduled {}",
                nodes.len(),
                hardware.len(),
                scheduled.len()
            )));
        }
        if let Some(i) = nodes.iter().position(|&n| n >= node_count) {
            return Err(ColumnError(format!(
                "maintenance node {} out of range (system has {node_count} nodes) at row {i}",
                nodes[i]
            )));
        }
        if (1..len).any(|i| (times[i - 1], nodes[i - 1]) > (times[i], nodes[i])) {
            return Err(ColumnError("maintenance not sorted by (time, node)".into()));
        }
        let (node_ptr, node_post) = node_postings_index(&nodes, node_count);
        Ok(MaintenanceColumns {
            days: day_column(&times, start),
            times,
            nodes,
            hardware,
            scheduled,
            node_ptr,
            node_post,
        })
    }

    /// Heap bytes held by the maintenance column arrays.
    pub fn resident_bytes(&self) -> u64 {
        (std::mem::size_of_val(self.times.as_slice())
            + std::mem::size_of_val(self.nodes.as_slice())
            + std::mem::size_of_val(self.hardware.as_slice())
            + std::mem::size_of_val(self.scheduled.as_slice())
            + std::mem::size_of_val(self.days.as_slice())
            + std::mem::size_of_val(self.node_ptr.as_slice())
            + std::mem::size_of_val(self.node_post.as_slice())) as u64
    }

    /// Number of maintenance events.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` when there are no events.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    #[inline]
    fn unsched_hw(&self, i: u32) -> bool {
        self.hardware[i as usize] && !self.scheduled[i as usize]
    }

    /// Decodes row `i` as a [`MaintenanceRecord`] owned by `system`.
    pub fn record(&self, i: usize, system: SystemId) -> MaintenanceRecord {
        MaintenanceRecord {
            system,
            node: NodeId::new(self.nodes[i]),
            time: Timestamp::from_seconds(self.times[i]),
            hardware_related: self.hardware[i],
            scheduled: self.scheduled[i],
        }
    }

    /// Event indices for `node`, in time order.
    #[inline]
    pub fn node_postings(&self, node: NodeId) -> &[u32] {
        let n = node.index();
        if n + 1 >= self.node_ptr.len() {
            return &[];
        }
        &self.node_post[self.node_ptr[n] as usize..self.node_ptr[n + 1] as usize]
    }

    /// Appends the day index of every unscheduled-hardware event on
    /// `node` to `out` (non-decreasing). Returns `(scanned, matched)`.
    pub fn collect_unsched_hw_days(&self, node: NodeId, out: &mut Vec<i64>) -> (usize, usize) {
        let postings = self.node_postings(node);
        let before = out.len();
        out.extend(
            postings
                .iter()
                .filter(|&&i| self.unsched_hw(i))
                .map(|&i| self.days[i as usize]),
        );
        (postings.len(), out.len() - before)
    }

    /// `true` when `node` has an unscheduled-hardware event with
    /// `after < time <= until` (both in seconds).
    pub fn any_unsched_hw_in_window(&self, node: NodeId, after: i64, until: i64) -> bool {
        let postings = self.node_postings(node);
        let from = postings.partition_point(|&i| self.times[i as usize] <= after);
        postings[from..]
            .iter()
            .take_while(|&&i| self.times[i as usize] <= until)
            .any(|&i| self.unsched_hw(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_sub_causes() -> Vec<SubCause> {
        let mut subs = vec![SubCause::None];
        subs.extend(HardwareComponent::ALL.map(SubCause::Hardware));
        subs.extend(SoftwareCause::ALL.map(SubCause::Software));
        subs.extend(EnvironmentCause::ALL.map(SubCause::Environment));
        subs
    }

    #[test]
    fn root_codes_round_trip() {
        for root in RootCause::ALL {
            assert_eq!(root_from_code(root_code(root)), Some(root));
        }
        assert_eq!(root_from_code(6), None);
        assert_eq!(root_from_code(255), None);
    }

    #[test]
    fn sub_codes_round_trip_and_are_unique() {
        let subs = all_sub_causes();
        let codes: Vec<u16> = subs.iter().map(|&s| sub_code(s)).collect();
        for (sub, &code) in subs.iter().zip(&codes) {
            assert_eq!(sub_from_code(code), Some(*sub), "{sub:?}");
        }
        let mut dedup = codes.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), codes.len(), "codes collide");
        assert_eq!(sub_from_code(0x00ff), None);
        assert_eq!(sub_from_code(0x010a), None);
        assert_eq!(sub_from_code(0x0400), None);
    }

    #[test]
    fn class_code_matches_mirror_failure_class() {
        let mut classes: Vec<FailureClass> = vec![FailureClass::Any];
        classes.extend(RootCause::ALL.map(FailureClass::Root));
        classes.extend(HardwareComponent::ALL.map(FailureClass::Hw));
        classes.extend(SoftwareCause::ALL.map(FailureClass::Sw));
        classes.extend(EnvironmentCause::ALL.map(FailureClass::Env));

        let mut records = Vec::new();
        for root in RootCause::ALL {
            for sub in all_sub_causes() {
                if sub.consistent_with(root) {
                    records.push(FailureRecord::new(
                        SystemId::new(1),
                        NodeId::new(0),
                        Timestamp::EPOCH,
                        root,
                        sub,
                    ));
                }
            }
        }
        for class in classes {
            let code = ClassCode::new(class);
            for r in &records {
                assert_eq!(
                    code.matches(root_code(r.root_cause), sub_code(r.sub_cause)),
                    class.matches(r),
                    "{class:?} vs {r:?}"
                );
            }
        }
    }

    fn sample_records() -> Vec<FailureRecord> {
        let sys = SystemId::new(7);
        let mut records = vec![
            FailureRecord::new(
                sys,
                NodeId::new(3),
                Timestamp::from_seconds(100),
                RootCause::Hardware,
                SubCause::Hardware(HardwareComponent::Cpu),
            )
            .with_downtime(Duration::from_seconds(3600)),
            FailureRecord::new(
                sys,
                NodeId::new(0),
                Timestamp::from_seconds(90_000),
                RootCause::Software,
                SubCause::Software(SoftwareCause::Os),
            ),
            FailureRecord::new(
                sys,
                NodeId::new(3),
                Timestamp::from_seconds(90_000),
                RootCause::Undetermined,
                SubCause::None,
            ),
            FailureRecord::new(
                sys,
                NodeId::new(3),
                Timestamp::from_seconds(200_000),
                RootCause::Hardware,
                SubCause::Hardware(HardwareComponent::MemoryDimm),
            ),
        ];
        records.sort_by_key(|r| (r.time, r.node));
        records
    }

    #[test]
    fn from_records_decodes_identically() {
        let records = sample_records();
        let cols = FailureColumns::from_records(&records, 5, Timestamp::EPOCH);
        assert_eq!(cols.len(), records.len());
        for (i, r) in records.iter().enumerate() {
            assert_eq!(cols.record(i, SystemId::new(7)), *r);
        }
        assert_eq!(cols.days(), &[0, 1, 1, 2]);
    }

    #[test]
    fn postings_are_per_node_and_time_ordered() {
        let cols = FailureColumns::from_records(&sample_records(), 5, Timestamp::EPOCH);
        assert_eq!(cols.node_event_count(NodeId::new(3)), 3);
        assert_eq!(cols.node_event_count(NodeId::new(0)), 1);
        assert_eq!(cols.node_event_count(NodeId::new(1)), 0);
        assert_eq!(cols.node_event_count(NodeId::new(99)), 0);
        let times: Vec<i64> = cols
            .node_postings(NodeId::new(3))
            .iter()
            .map(|&i| cols.times()[i as usize])
            .collect();
        assert_eq!(times, vec![100, 90_000, 200_000]);
    }

    #[test]
    fn window_queries_match_row_scans() {
        let records = sample_records();
        let cols = FailureColumns::from_records(&records, 5, Timestamp::EPOCH);
        let node = NodeId::new(3);
        for class in [
            FailureClass::Any,
            FailureClass::Root(RootCause::Hardware),
            FailureClass::Hw(HardwareComponent::Cpu),
            FailureClass::Sw(SoftwareCause::Os),
        ] {
            let code = ClassCode::new(class);
            for (after, until) in [(0, 100_000), (100, 250_000), (-10, 50), (90_000, 90_000)] {
                let expect = records
                    .iter()
                    .filter(|r| r.node == node)
                    .filter(|r| r.time.as_seconds() > after && r.time.as_seconds() <= until)
                    .filter(|r| class.matches(r))
                    .count();
                assert_eq!(
                    cols.count_in_window(node, code, after, until),
                    expect,
                    "{class:?} ({after}, {until}]"
                );
                assert_eq!(
                    cols.any_in_window(node, code, after, until),
                    expect > 0,
                    "{class:?} ({after}, {until}]"
                );
            }
        }
    }

    #[test]
    fn collect_node_days_filters_and_counts() {
        let cols = FailureColumns::from_records(&sample_records(), 5, Timestamp::EPOCH);
        let mut out = Vec::new();
        let (scanned, matched) = cols.collect_node_days(
            NodeId::new(3),
            ClassCode::new(FailureClass::Root(RootCause::Hardware)),
            &mut out,
        );
        assert_eq!((scanned, matched), (3, 2));
        assert_eq!(out, vec![0, 2]);

        out.clear();
        // A class whose root never appears on the node: mask pre-filter
        // reports zero matches without scanning output.
        let (scanned, matched) = cols.collect_node_days(
            NodeId::new(3),
            ClassCode::new(FailureClass::Root(RootCause::Network)),
            &mut out,
        );
        assert_eq!((scanned, matched), (3, 0));
        assert!(out.is_empty());
    }

    #[test]
    fn raw_parts_round_trip_and_reject_bad_data() {
        let records = sample_records();
        let cols = FailureColumns::from_records(&records, 5, Timestamp::EPOCH);
        let rebuilt = FailureColumns::from_raw_parts(
            cols.times().to_vec(),
            cols.nodes().to_vec(),
            cols.roots().to_vec(),
            cols.subs().to_vec(),
            cols.downtimes().to_vec(),
            5,
            Timestamp::EPOCH,
        )
        .expect("valid columns");
        assert_eq!(rebuilt, cols);

        let bad_root = FailureColumns::from_raw_parts(
            vec![0],
            vec![0],
            vec![77],
            vec![0],
            vec![-1],
            5,
            Timestamp::EPOCH,
        );
        assert!(bad_root.is_err());

        let bad_node = FailureColumns::from_raw_parts(
            vec![0],
            vec![9],
            vec![1],
            vec![0],
            vec![-1],
            5,
            Timestamp::EPOCH,
        );
        assert!(bad_node.is_err());

        let unsorted = FailureColumns::from_raw_parts(
            vec![100, 50],
            vec![0, 0],
            vec![1, 1],
            vec![0, 0],
            vec![-1, -1],
            5,
            Timestamp::EPOCH,
        );
        assert!(unsorted.is_err());

        let inconsistent = FailureColumns::from_raw_parts(
            vec![0],
            vec![0],
            // Network root with a hardware sub-cause.
            vec![3],
            vec![sub_code(SubCause::Hardware(HardwareComponent::Cpu))],
            vec![-1],
            5,
            Timestamp::EPOCH,
        );
        assert!(inconsistent.is_err());
    }

    #[test]
    fn maintenance_columns_window_and_days() {
        let sys = SystemId::new(7);
        let mk = |node: u32, time: i64, hw: bool, sched: bool| MaintenanceRecord {
            system: sys,
            node: NodeId::new(node),
            time: Timestamp::from_seconds(time),
            hardware_related: hw,
            scheduled: sched,
        };
        let mut records = vec![
            mk(1, 1_000, true, false),
            mk(1, 90_000, true, true),
            mk(2, 5_000, false, false),
            mk(1, 200_000, true, false),
        ];
        records.sort_by_key(|r| (r.time, r.node));
        let cols = MaintenanceColumns::from_records(&records, 4, Timestamp::EPOCH);
        let mut out = Vec::new();
        let (scanned, matched) = cols.collect_unsched_hw_days(NodeId::new(1), &mut out);
        assert_eq!((scanned, matched), (3, 2));
        assert_eq!(out, vec![0, 2]);
        assert!(cols.any_unsched_hw_in_window(NodeId::new(1), 0, 2_000));
        assert!(!cols.any_unsched_hw_in_window(NodeId::new(1), 1_000, 100_000));
        assert!(!cols.any_unsched_hw_in_window(NodeId::new(2), 0, 10_000));
        assert!(cols.any_unsched_hw_in_window(NodeId::new(1), 100_000, 300_000));
        for (i, r) in records.iter().enumerate() {
            assert_eq!(cols.record(i, sys), *r);
        }

        let raw = |times: Vec<i64>, nodes: Vec<u32>| {
            let n = times.len();
            MaintenanceColumns::from_raw_parts(
                times,
                nodes,
                vec![true; n],
                vec![false; n],
                4,
                Timestamp::EPOCH,
            )
        };
        assert!(raw(vec![0], vec![4]).is_err(), "node out of range");
        assert!(raw(vec![5, 1], vec![0, 0]).is_err(), "unsorted");
        assert!(raw(vec![0, 0], vec![0]).is_err(), "length mismatch");
    }
}
