//! The trace store: immutable, indexed collections of records.
//!
//! Failures and maintenance events are stored once, as timestamp-sorted
//! struct-of-arrays columns ([`crate::columns::FailureColumns`],
//! [`crate::columns::MaintenanceColumns`]). There is no row cache:
//! [`SystemTrace::failures`] and [`SystemTrace::maintenance`] decode
//! records from the columns on every pass, in the builder's
//! `(time, node)` order, so they suit cold callers (CSV export, tests);
//! analyses read the column slices directly.
//!
//! A [`Trace`] carries one content fingerprint, [`Trace::fingerprint`],
//! computed at most once per trace value and reused as the snapshot
//! header and the serving layer's result-cache key.

use crate::columns::{ClassCode, FailureColumns, MaintenanceColumns};
use hpcfail_types::prelude::*;
use std::collections::BTreeMap;
use std::sync::OnceLock;

/// Builder for a [`SystemTrace`]; collects records in any order, then
/// [`SystemTraceBuilder::build`] sorts and indexes them.
#[derive(Debug, Clone)]
pub struct SystemTraceBuilder {
    config: SystemConfig,
    failures: Vec<FailureRecord>,
    jobs: Vec<JobRecord>,
    temperatures: Vec<TemperatureSample>,
    maintenance: Vec<MaintenanceRecord>,
    layout: Option<MachineLayout>,
}

impl SystemTraceBuilder {
    /// Starts a trace for the given system.
    pub fn new(config: SystemConfig) -> Self {
        SystemTraceBuilder {
            config,
            failures: Vec::new(),
            jobs: Vec::new(),
            temperatures: Vec::new(),
            maintenance: Vec::new(),
            layout: None,
        }
    }

    /// Adds a failure record.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the record's system id or node index does
    /// not belong to this system.
    pub fn push_failure(&mut self, record: FailureRecord) -> &mut Self {
        debug_assert_eq!(record.system, self.config.id, "failure from wrong system");
        debug_assert!(
            record.node.index() < self.config.nodes as usize,
            "node {} out of range for {}-node system",
            record.node,
            self.config.nodes
        );
        self.failures.push(record);
        self
    }

    /// Adds a job record.
    pub fn push_job(&mut self, record: JobRecord) -> &mut Self {
        debug_assert_eq!(record.system, self.config.id, "job from wrong system");
        self.jobs.push(record);
        self
    }

    /// Adds a temperature sample.
    pub fn push_temperature(&mut self, sample: TemperatureSample) -> &mut Self {
        debug_assert_eq!(sample.system, self.config.id, "sample from wrong system");
        self.temperatures.push(sample);
        self
    }

    /// Adds a maintenance record.
    pub fn push_maintenance(&mut self, record: MaintenanceRecord) -> &mut Self {
        debug_assert_eq!(
            record.system, self.config.id,
            "maintenance from wrong system"
        );
        self.maintenance.push(record);
        self
    }

    /// Sets the machine-room layout.
    pub fn layout(&mut self, layout: MachineLayout) -> &mut Self {
        self.layout = Some(layout);
        self
    }

    /// Sorts, indexes and freezes the trace.
    pub fn build(self) -> SystemTrace {
        let SystemTraceBuilder {
            config,
            mut failures,
            mut jobs,
            mut temperatures,
            mut maintenance,
            layout,
        } = self;
        failures.sort_by_key(|f| (f.time, f.node));
        jobs.sort_by_key(|j| j.dispatch);
        temperatures.sort_by_key(|t| t.time);
        maintenance.sort_by_key(|m| (m.time, m.node));

        let columns = FailureColumns::from_records(&failures, config.nodes, config.start);
        let maint_columns =
            MaintenanceColumns::from_records(&maintenance, config.nodes, config.start);
        SystemTrace::from_parts(config, columns, jobs, temperatures, maint_columns, layout)
    }
}

/// One system's complete, indexed trace.
///
/// Records are sorted by time; per-node indexes give every node's
/// failures and maintenance events in time order.
#[derive(Debug, Clone)]
pub struct SystemTrace {
    config: SystemConfig,
    columns: FailureColumns,
    jobs: Vec<JobRecord>,
    temperatures: Vec<TemperatureSample>,
    maint_columns: MaintenanceColumns,
    layout: Option<MachineLayout>,
    /// Lazy caches of day vectors and pooled baselines; see
    /// [`crate::index`]. Cloning yields a cold index.
    pub(crate) index: crate::index::TimelineIndex,
}

impl SystemTrace {
    /// Assembles a trace from pre-validated columnar parts (the builder
    /// and snapshot load paths). `jobs` and `temperatures` must already
    /// be in builder sort order.
    pub(crate) fn from_parts(
        config: SystemConfig,
        columns: FailureColumns,
        jobs: Vec<JobRecord>,
        temperatures: Vec<TemperatureSample>,
        maint_columns: MaintenanceColumns,
        layout: Option<MachineLayout>,
    ) -> SystemTrace {
        SystemTrace {
            config,
            columns,
            jobs,
            temperatures,
            maint_columns,
            layout,
            index: crate::index::TimelineIndex::new(),
        }
    }

    /// The system's static description.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The system id (shorthand for `config().id`).
    pub fn id(&self) -> SystemId {
        self.config.id
    }

    /// All failures, sorted by `(time, node)`, decoded from the columns.
    ///
    /// Every pass decodes each record afresh; analyses read
    /// [`SystemTrace::failure_columns`] instead.
    pub fn failures(&self) -> impl ExactSizeIterator<Item = FailureRecord> + '_ {
        let id = self.config.id;
        (0..self.columns.len()).map(move |i| self.columns.record(i, id))
    }

    /// The columnar failure storage: timestamp-sorted field arrays plus
    /// per-node postings.
    pub fn failure_columns(&self) -> &FailureColumns {
        &self.columns
    }

    /// Failures of one node, in time order, decoded from the columns.
    pub fn node_failures(&self, node: NodeId) -> impl ExactSizeIterator<Item = FailureRecord> + '_ {
        let id = self.config.id;
        self.columns
            .node_postings(node)
            .iter()
            .map(move |&i| self.columns.record(i as usize, id))
    }

    /// Number of failures of one node.
    pub fn node_failure_count(&self, node: NodeId) -> usize {
        self.columns.node_event_count(node)
    }

    /// All jobs, sorted by dispatch time.
    pub fn jobs(&self) -> &[JobRecord] {
        &self.jobs
    }

    /// All temperature samples, sorted by time.
    pub fn temperatures(&self) -> &[TemperatureSample] {
        &self.temperatures
    }

    /// All maintenance records, sorted by `(time, node)`, decoded from
    /// the columns.
    pub fn maintenance(&self) -> impl ExactSizeIterator<Item = MaintenanceRecord> + '_ {
        let id = self.config.id;
        (0..self.maint_columns.len()).map(move |i| self.maint_columns.record(i, id))
    }

    /// Maintenance events of one node, in time order, decoded from the
    /// columns.
    pub fn node_maintenance(
        &self,
        node: NodeId,
    ) -> impl ExactSizeIterator<Item = MaintenanceRecord> + '_ {
        let id = self.config.id;
        self.maint_columns
            .node_postings(node)
            .iter()
            .map(move |&i| self.maint_columns.record(i as usize, id))
    }

    /// The columnar maintenance storage: timestamp-sorted field arrays
    /// plus per-node postings.
    pub(crate) fn maintenance_columns(&self) -> &MaintenanceColumns {
        &self.maint_columns
    }

    /// The machine-room layout, if available.
    pub fn layout(&self) -> Option<&MachineLayout> {
        self.layout.as_ref()
    }

    /// Approximate heap bytes held by this system's event storage: the
    /// failure and maintenance columns and the job and temperature
    /// vectors. Lazy index caches and the layout are excluded — the
    /// figure sizes the primary data, not transient caches.
    pub fn resident_bytes(&self) -> u64 {
        self.columns.resident_bytes()
            + self.maint_columns.resident_bytes()
            + std::mem::size_of_val(self.jobs.as_slice()) as u64
            + std::mem::size_of_val(self.temperatures.as_slice()) as u64
    }

    /// Iterates over all node ids of this system.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.config.nodes).map(NodeId::new)
    }

    /// `true` if `(t, t + window]` lies inside the observation period
    /// when anchored at `t` — i.e. the window is fully observed.
    pub fn window_observed(&self, t: Timestamp, window: Window) -> bool {
        t >= self.config.start
            && t.checked_add(window.duration())
                .is_some_and(|end| end <= self.config.end)
    }

    /// `true` if node has at least one failure of `class` in the
    /// half-open interval `(after, until]`.
    pub fn node_has_failure_in(
        &self,
        node: NodeId,
        class: FailureClass,
        after: Timestamp,
        until: Timestamp,
    ) -> bool {
        self.columns.any_in_window(
            node,
            ClassCode::new(class),
            after.as_seconds(),
            until.as_seconds(),
        )
    }

    /// Counts node failures of `class` in `(after, until]`.
    pub fn node_failures_in(
        &self,
        node: NodeId,
        class: FailureClass,
        after: Timestamp,
        until: Timestamp,
    ) -> usize {
        self.columns.count_in_window(
            node,
            ClassCode::new(class),
            after.as_seconds(),
            until.as_seconds(),
        )
    }

    /// A copy of this trace restricted to records in `[start, end)`,
    /// with the observation period clipped accordingly. Jobs are kept
    /// when they overlap the range; the layout is kept as-is.
    ///
    /// Useful for split-sample analyses (e.g. evaluating an alarm rule
    /// out of sample) and for excluding burn-in periods.
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    pub fn restricted(&self, start: Timestamp, end: Timestamp) -> SystemTrace {
        assert!(start < end, "restricted range must be non-empty");
        let start = start.max(self.config.start);
        let end = end.min(self.config.end);
        let mut config = self.config.clone();
        config.start = start;
        config.end = end.max(start);
        let mut builder = SystemTraceBuilder::new(config);
        for f in self.failures() {
            if f.time >= start && f.time < end {
                builder.push_failure(f);
            }
        }
        for j in &self.jobs {
            if j.dispatch < end && j.end > start {
                builder.push_job(j.clone());
            }
        }
        for t in &self.temperatures {
            if t.time >= start && t.time < end {
                builder.push_temperature(*t);
            }
        }
        for m in self.maintenance() {
            if m.time >= start && m.time < end {
                builder.push_maintenance(m);
            }
        }
        if let Some(layout) = &self.layout {
            builder.layout(layout.clone());
        }
        builder.build()
    }

    /// `true` if node has at least one *unscheduled hardware* maintenance
    /// event in `(after, until]`.
    pub fn node_has_unscheduled_hw_maintenance_in(
        &self,
        node: NodeId,
        after: Timestamp,
        until: Timestamp,
    ) -> bool {
        self.maint_columns
            .any_unsched_hw_in_window(node, after.as_seconds(), until.as_seconds())
    }
}

/// Streaming 64-bit FNV-1a: the content fingerprint's hasher, also used
/// for the snapshot's per-section checksums.
pub(crate) struct Fnv(pub(crate) u64);

impl Fnv {
    pub(crate) const fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub(crate) fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// The full data release: every system plus fleet-wide neutron samples.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    systems: BTreeMap<SystemId, SystemTrace>,
    neutron: Vec<NeutronSample>,
    /// Memo of [`Trace::fingerprint`]; every mutator resets it.
    fingerprint: OnceLock<u64>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Adds (or replaces) a system trace.
    pub fn insert_system(&mut self, system: SystemTrace) {
        self.fingerprint = OnceLock::new();
        self.systems.insert(system.id(), system);
    }

    /// Sets the neutron-monitor samples (sorted by time internally).
    pub fn set_neutron_samples(&mut self, mut samples: Vec<NeutronSample>) {
        self.fingerprint = OnceLock::new();
        samples.sort_by_key(|s| s.time);
        self.neutron = samples;
    }

    /// FNV-1a content fingerprint over everything the trace holds —
    /// every system's configuration, failures, jobs (node lists
    /// included), temperatures, maintenance and layout, plus the neutron
    /// samples — read from the stored columns and vectors.
    ///
    /// Equal content gives an equal fingerprint however the trace was
    /// loaded (CSV, snapshot, synthetic). It is the `.hpcsnap` header
    /// hash and the serving layer's cache key, computed at most once per
    /// trace value: the result is memoized until the next mutation.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint.get_or_init(|| self.hash_content())
    }

    fn hash_content(&self) -> u64 {
        let mut h = Fnv::new();
        h.u64(self.len() as u64);
        for system in self.systems() {
            let c = system.config();
            h.u64(c.id.raw() as u64);
            h.bytes(c.name.as_bytes());
            h.u64(c.nodes as u64);
            h.u64(c.procs_per_node as u64);
            h.u64(matches!(c.hardware, HardwareClass::Numa) as u64);
            h.i64(c.start.as_seconds());
            h.i64(c.end.as_seconds());
            h.u64(
                ((c.has_layout as u64) << 2)
                    | ((c.has_job_log as u64) << 1)
                    | c.has_temperature as u64,
            );

            let cols = system.failure_columns();
            h.u64(cols.len() as u64);
            for i in 0..cols.len() {
                h.i64(cols.times()[i]);
                h.u64(cols.nodes()[i] as u64);
                h.u64(cols.roots()[i] as u64);
                h.u64(cols.subs()[i] as u64);
                h.i64(cols.downtimes()[i]);
            }
            h.u64(system.jobs().len() as u64);
            for j in system.jobs() {
                h.u64(j.job_id.raw());
                h.u64(j.user.raw() as u64);
                h.i64(j.submit.as_seconds());
                h.i64(j.dispatch.as_seconds());
                h.i64(j.end.as_seconds());
                h.u64(j.procs as u64);
                h.u64(j.nodes.len() as u64);
                for n in &j.nodes {
                    h.u64(n.raw() as u64);
                }
            }
            h.u64(system.temperatures().len() as u64);
            for t in system.temperatures() {
                h.u64(t.node.raw() as u64);
                h.i64(t.time.as_seconds());
                h.u64(t.celsius.to_bits());
            }
            h.u64(system.maintenance().len() as u64);
            for m in system.maintenance() {
                h.u64(m.node.raw() as u64);
                h.i64(m.time.as_seconds());
                h.u64(((m.hardware_related as u64) << 1) | m.scheduled as u64);
            }
            match system.layout() {
                None => h.u64(u64::MAX),
                Some(layout) => {
                    h.u64(layout.len() as u64);
                    for (node, loc) in layout.iter() {
                        h.u64(node.raw() as u64);
                        h.u64(loc.rack.raw() as u64);
                        h.u64(loc.position_in_rack as u64);
                        h.u64(loc.room_row as u64);
                        h.u64(loc.room_col as u64);
                    }
                }
            }
        }
        h.u64(self.neutron.len() as u64);
        for s in &self.neutron {
            h.i64(s.time.as_seconds());
            h.u64(s.counts_per_minute.to_bits());
        }
        h.0
    }

    /// Looks up one system.
    pub fn system(&self, id: SystemId) -> Option<&SystemTrace> {
        self.systems.get(&id)
    }

    /// Iterates over all systems in id order.
    pub fn systems(&self) -> impl Iterator<Item = &SystemTrace> {
        self.systems.values()
    }

    /// Iterates over the systems of one hardware group.
    pub fn group_systems(&self, group: SystemGroup) -> impl Iterator<Item = &SystemTrace> {
        self.systems
            .values()
            .filter(move |s| s.config().group() == group)
    }

    /// The neutron-monitor samples, sorted by time.
    pub fn neutron_samples(&self) -> &[NeutronSample] {
        &self.neutron
    }

    /// Number of systems.
    pub fn len(&self) -> usize {
        self.systems.len()
    }

    /// `true` if the trace holds no systems.
    pub fn is_empty(&self) -> bool {
        self.systems.is_empty()
    }

    /// Total failures across all systems.
    pub fn total_failures(&self) -> usize {
        self.systems
            .values()
            .map(|s| s.failure_columns().len())
            .sum()
    }

    /// Approximate heap bytes held by the trace's event storage (the
    /// sum of every system's [`SystemTrace::resident_bytes`] plus the
    /// neutron samples). Serving layers use this for residency budgets.
    pub fn resident_bytes(&self) -> u64 {
        self.systems
            .values()
            .map(SystemTrace::resident_bytes)
            .sum::<u64>()
            + std::mem::size_of_val(self.neutron.as_slice()) as u64
    }
}

#[cfg(test)]
mod resident_tests {
    use super::*;

    #[test]
    fn resident_bytes_track_event_volume() {
        let mut small = SystemTraceBuilder::new(tests::test_config(1, 4, 10.0));
        small.push_failure(FailureRecord::new(
            SystemId::new(1),
            NodeId::new(0),
            Timestamp::from_seconds(100),
            RootCause::Hardware,
            SubCause::None,
        ));
        let small = small.build();

        let mut large = SystemTraceBuilder::new(tests::test_config(2, 4, 10.0));
        for i in 0..100 {
            large.push_failure(FailureRecord::new(
                SystemId::new(2),
                NodeId::new(i % 4),
                Timestamp::from_seconds(i64::from(i) * 60),
                RootCause::Software,
                SubCause::None,
            ));
        }
        let large = large.build();

        assert!(small.resident_bytes() > 0);
        assert!(large.resident_bytes() > small.resident_bytes());

        let mut trace = Trace::new();
        trace.insert_system(small);
        let one = trace.resident_bytes();
        trace.insert_system(large);
        assert!(trace.resident_bytes() > one);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn test_config(id: u16, nodes: u32, days: f64) -> SystemConfig {
        SystemConfig {
            id: SystemId::new(id),
            name: format!("test-{id}"),
            nodes,
            procs_per_node: 4,
            hardware: HardwareClass::Smp4Way,
            start: Timestamp::EPOCH,
            end: Timestamp::from_days(days),
            has_layout: false,
            has_job_log: false,
            has_temperature: false,
        }
    }

    fn failure(node: u32, day: f64, root: RootCause) -> FailureRecord {
        FailureRecord::new(
            SystemId::new(1),
            NodeId::new(node),
            Timestamp::from_days(day),
            root,
            SubCause::None,
        )
    }

    fn build_simple() -> SystemTrace {
        let mut b = SystemTraceBuilder::new(test_config(1, 4, 100.0));
        b.push_failure(failure(2, 50.0, RootCause::Network));
        b.push_failure(failure(0, 10.0, RootCause::Hardware));
        b.push_failure(failure(2, 12.0, RootCause::Software));
        b.push_failure(failure(0, 10.5, RootCause::Hardware));
        b.build()
    }

    #[test]
    fn build_sorts_by_time() {
        let t = build_simple();
        let times: Vec<f64> = t.failures().map(|f| f.time.as_days()).collect();
        assert_eq!(times, vec![10.0, 10.5, 12.0, 50.0]);
    }

    #[test]
    fn node_index_partition() {
        let t = build_simple();
        assert_eq!(t.node_failure_count(NodeId::new(0)), 2);
        assert_eq!(t.node_failure_count(NodeId::new(2)), 2);
        assert_eq!(t.node_failure_count(NodeId::new(1)), 0);
        assert_eq!(t.node_failure_count(NodeId::new(99)), 0);
        let node0: Vec<f64> = t
            .node_failures(NodeId::new(0))
            .map(|f| f.time.as_days())
            .collect();
        assert_eq!(node0, vec![10.0, 10.5]);
    }

    #[test]
    fn window_membership_half_open() {
        let t = build_simple();
        let node = NodeId::new(0);
        // (10.0, 10.5]: the 10.5 failure counts, the 10.0 trigger doesn't.
        assert!(t.node_has_failure_in(
            node,
            FailureClass::Any,
            Timestamp::from_days(10.0),
            Timestamp::from_days(10.5),
        ));
        // (10.5, 20.0]: nothing.
        assert!(!t.node_has_failure_in(
            node,
            FailureClass::Any,
            Timestamp::from_days(10.5),
            Timestamp::from_days(20.0),
        ));
    }

    #[test]
    fn window_class_filtering() {
        let t = build_simple();
        let node = NodeId::new(2);
        let after = Timestamp::from_days(0.0);
        let until = Timestamp::from_days(100.0);
        assert!(t.node_has_failure_in(node, FailureClass::Root(RootCause::Network), after, until));
        assert!(!t.node_has_failure_in(
            node,
            FailureClass::Root(RootCause::Hardware),
            after,
            until
        ));
        assert_eq!(t.node_failures_in(node, FailureClass::Any, after, until), 2);
    }

    #[test]
    fn window_observed_bounds() {
        let t = build_simple();
        assert!(t.window_observed(Timestamp::from_days(92.9), Window::Week));
        assert!(!t.window_observed(Timestamp::from_days(93.1), Window::Week));
        assert!(!t.window_observed(Timestamp::from_days(-0.1), Window::Day));
    }

    #[test]
    fn maintenance_index() {
        let mut b = SystemTraceBuilder::new(test_config(1, 2, 50.0));
        b.push_maintenance(MaintenanceRecord {
            system: SystemId::new(1),
            node: NodeId::new(1),
            time: Timestamp::from_days(5.0),
            hardware_related: true,
            scheduled: false,
        });
        b.push_maintenance(MaintenanceRecord {
            system: SystemId::new(1),
            node: NodeId::new(1),
            time: Timestamp::from_days(9.0),
            hardware_related: true,
            scheduled: true,
        });
        let t = b.build();
        assert!(t.node_has_unscheduled_hw_maintenance_in(
            NodeId::new(1),
            Timestamp::from_days(4.0),
            Timestamp::from_days(6.0),
        ));
        // The scheduled one must not count.
        assert!(!t.node_has_unscheduled_hw_maintenance_in(
            NodeId::new(1),
            Timestamp::from_days(8.0),
            Timestamp::from_days(10.0),
        ));
        assert_eq!(t.node_maintenance(NodeId::new(1)).count(), 2);
    }

    #[test]
    fn restricted_clips_records_and_span() {
        let t = build_simple();
        let slice = t.restricted(Timestamp::from_days(11.0), Timestamp::from_days(45.0));
        // Only the day-12 failure lies in [11, 45).
        assert_eq!(slice.failures().len(), 1);
        assert_eq!(
            slice.failures().next().map(|f| f.time),
            Some(Timestamp::from_days(12.0))
        );
        assert_eq!(slice.config().start, Timestamp::from_days(11.0));
        assert_eq!(slice.config().end, Timestamp::from_days(45.0));
        assert_eq!(slice.config().observation_days(), 34);
        // Original untouched.
        assert_eq!(t.failures().len(), 4);
    }

    #[test]
    fn restricted_clamps_to_observation() {
        let t = build_simple();
        let slice = t.restricted(Timestamp::from_days(-5.0), Timestamp::from_days(1000.0));
        assert_eq!(slice.config().start, Timestamp::EPOCH);
        assert_eq!(slice.config().end, Timestamp::from_days(100.0));
        assert_eq!(slice.failures().len(), 4);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn restricted_rejects_empty_range() {
        let t = build_simple();
        let _ = t.restricted(Timestamp::from_days(10.0), Timestamp::from_days(10.0));
    }

    #[test]
    fn trace_grouping() {
        let mut trace = Trace::new();
        trace.insert_system(SystemTraceBuilder::new(test_config(1, 2, 10.0)).build());
        let mut numa = test_config(2, 2, 10.0);
        numa.hardware = HardwareClass::Numa;
        trace.insert_system(SystemTraceBuilder::new(numa).build());
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.group_systems(SystemGroup::Group1).count(), 1);
        assert_eq!(trace.group_systems(SystemGroup::Group2).count(), 1);
        assert!(trace.system(SystemId::new(2)).is_some());
        assert!(trace.system(SystemId::new(3)).is_none());
    }

    fn job(node: u32) -> JobRecord {
        JobRecord {
            system: SystemId::new(1),
            job_id: JobId::new(1),
            user: UserId::new(1),
            submit: Timestamp::from_days(1.0),
            dispatch: Timestamp::from_days(1.0),
            end: Timestamp::from_days(2.0),
            procs: 4,
            nodes: vec![NodeId::new(node)],
        }
    }

    fn single_system(job_node: u32, rack: u16) -> Trace {
        let mut b = SystemTraceBuilder::new(test_config(1, 4, 100.0));
        b.push_failure(failure(2, 50.0, RootCause::Network));
        b.push_job(job(job_node));
        b.layout(
            [(
                NodeId::new(0),
                NodeLocation {
                    rack: RackId::new(rack),
                    position_in_rack: 1,
                    room_row: 0,
                    room_col: 0,
                },
            )]
            .into_iter()
            .collect(),
        );
        let mut trace = Trace::new();
        trace.insert_system(b.build());
        trace
    }

    #[test]
    fn fingerprint_covers_job_nodes_and_layout() {
        let base = single_system(1, 0);
        assert_eq!(base.fingerprint(), single_system(1, 0).fingerprint());
        assert_ne!(base.fingerprint(), single_system(2, 0).fingerprint());
        assert_ne!(base.fingerprint(), single_system(1, 1).fingerprint());
    }

    #[test]
    fn fingerprint_memo_resets_on_mutation() {
        let mut trace = single_system(1, 0);
        let first = trace.fingerprint();
        assert_eq!(trace.fingerprint(), first, "memoized value is stable");

        trace.insert_system(build_simple());
        let replaced = trace.fingerprint();
        assert_ne!(replaced, first, "insert_system resets the memo");

        trace.set_neutron_samples(vec![NeutronSample {
            time: Timestamp::from_days(1.0),
            counts_per_minute: 4000.0,
        }]);
        assert_ne!(
            trace.fingerprint(),
            replaced,
            "set_neutron_samples resets the memo"
        );
        // A fresh trace with the same content agrees with the reset memo.
        let mut fresh = single_system(1, 0);
        fresh.insert_system(build_simple());
        fresh.set_neutron_samples(trace.neutron_samples().to_vec());
        assert_eq!(fresh.fingerprint(), trace.fingerprint());
    }

    #[test]
    fn neutron_samples_sorted() {
        let mut trace = Trace::new();
        trace.set_neutron_samples(vec![
            NeutronSample {
                time: Timestamp::from_days(2.0),
                counts_per_minute: 4000.0,
            },
            NeutronSample {
                time: Timestamp::from_days(1.0),
                counts_per_minute: 4100.0,
            },
        ]);
        let times: Vec<f64> = trace
            .neutron_samples()
            .iter()
            .map(|s| s.time.as_days())
            .collect();
        assert_eq!(times, vec![1.0, 2.0]);
    }
}
