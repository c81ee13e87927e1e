//! Simulated storage devices.
//!
//! The paper's single-node experiments report results on two drives: a SATA
//! SSD (550 MB/s read, 520 MB/s write) and an NVMe SSD (3400/2500 MB/s)
//! (paper §4, "Experiment Setup"). We do not have those drives; what their
//! difference *does* in every experiment is change how long a byte takes to
//! move, flipping queries between IO-bound and CPU-bound. A device here is a
//! pair of bandwidth figures plus atomic byte counters; the harness adds the
//! simulated stall time to measured CPU time (`total = cpu + bytes/bandwidth`,
//! modelling the engine's synchronous page IO).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

use tc_util::sync::{ranks, OrderedMutex};

use crate::error::{IoOp, StorageError};
use crate::fault::{FaultPlan, WriteMutation};

/// Static description of a device's sequential throughput.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceProfile {
    pub name: &'static str,
    /// Sequential read bandwidth, bytes/second.
    pub read_bps: f64,
    /// Sequential write bandwidth, bytes/second.
    pub write_bps: f64,
}

impl DeviceProfile {
    /// The paper's SATA SSD: up to 550 MB/s read, 520 MB/s write.
    pub const SATA_SSD: DeviceProfile =
        DeviceProfile { name: "sata-ssd", read_bps: 550.0e6, write_bps: 520.0e6 };

    /// The paper's NVMe SSD: up to 3400 MB/s read, 2500 MB/s write.
    pub const NVME_SSD: DeviceProfile =
        DeviceProfile { name: "nvme-ssd", read_bps: 3400.0e6, write_bps: 2500.0e6 };

    /// Infinite-bandwidth device for CPU-only experiments (Fig 22b).
    pub const RAM: DeviceProfile =
        DeviceProfile { name: "ram", read_bps: f64::INFINITY, write_bps: f64::INFINITY };
}

/// A device instance: a profile plus byte counters. One per data partition;
/// shared (`Arc`) by every file on that partition.
#[derive(Debug)]
pub struct Device {
    profile: DeviceProfile,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    read_ops: AtomicU64,
    write_ops: AtomicU64,
    /// Installed fault-injection plan, if any. Consulted (and released)
    /// before taking the file `data` lock — rank 850 sits between `laf`
    /// and `data` in the declared order.
    fault: OrderedMutex<Option<FaultPlan>>,
    /// Fast-path flag: when no plan is installed, fault consultation is a
    /// single relaxed load, so the zero-fault overhead is unmeasurable.
    fault_armed: AtomicBool,
    faults_injected: AtomicU64,
    checksum_failures: AtomicU64,
}

impl Device {
    pub fn new(profile: DeviceProfile) -> Self {
        Device {
            profile,
            bytes_read: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            read_ops: AtomicU64::new(0),
            write_ops: AtomicU64::new(0),
            fault: OrderedMutex::new(ranks::DEVICE_FAULT, None),
            fault_armed: AtomicBool::new(false),
            faults_injected: AtomicU64::new(0),
            checksum_failures: AtomicU64::new(0),
        }
    }

    /// Install (replacing any previous) a fault plan. Every subsequent I/O
    /// operation on files backed by this device consults it.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.fault.lock() = Some(plan);
        self.fault_armed.store(true, Ordering::Release);
    }

    /// Remove the installed fault plan, returning it (its operation counters
    /// are how the crash-point sweep calibrates itself).
    pub fn clear_fault_plan(&self) -> Option<FaultPlan> {
        self.fault_armed.store(false, Ordering::Release);
        self.fault.lock().take()
    }

    /// Total I/O operations the installed plan has observed (0 without one).
    pub fn fault_ops_seen(&self) -> u64 {
        self.fault.lock().as_ref().map_or(0, FaultPlan::ops_seen)
    }

    fn consult(&self, op: IoOp) -> Result<WriteMutation, StorageError> {
        if !self.fault_armed.load(Ordering::Acquire) {
            return Ok(WriteMutation::Clean);
        }
        let mut guard = self.fault.lock();
        let Some(plan) = guard.as_mut() else {
            return Ok(WriteMutation::Clean);
        };
        let outcome = plan.on_op(op);
        if !matches!(outcome, Ok(WriteMutation::Clean)) {
            self.faults_injected.fetch_add(1, Ordering::Relaxed);
        }
        outcome
    }

    /// Consult the fault plan for a read. Called before the actual read.
    #[inline]
    pub fn fault_read(&self) -> Result<(), StorageError> {
        self.consult(IoOp::Read).map(|_| ())
    }

    /// Consult the fault plan for a rotation (segment rename).
    #[inline]
    pub fn fault_rotate(&self) -> Result<(), StorageError> {
        self.consult(IoOp::Rotate).map(|_| ())
    }

    /// Consult the fault plan for a write; the returned mutation tells the
    /// file store how to (mis)handle the buffer.
    #[inline]
    pub fn fault_write(&self) -> Result<WriteMutation, StorageError> {
        self.consult(IoOp::Write)
    }

    /// Record a checksum verification failure observed by a reader of this
    /// device (page footer or WAL record mismatch).
    pub fn note_checksum_failure(&self) {
        self.checksum_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Faults injected so far (scripted failures + mutations, random storms).
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// Checksum verification failures detected by readers so far.
    pub fn checksum_failures(&self) -> u64 {
        self.checksum_failures.load(Ordering::Relaxed)
    }

    pub fn profile(&self) -> DeviceProfile {
        self.profile
    }

    #[inline]
    pub fn record_read(&self, bytes: u64) {
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.read_ops.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_write(&self, bytes: u64) {
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
        self.write_ops.fetch_add(1, Ordering::Relaxed);
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    pub fn read_ops(&self) -> u64 {
        self.read_ops.load(Ordering::Relaxed)
    }

    pub fn write_ops(&self) -> u64 {
        self.write_ops.load(Ordering::Relaxed)
    }

    /// Simulated time the recorded IO would take at this device's bandwidth.
    pub fn io_time(&self) -> Duration {
        let read_s = self.bytes_read() as f64 / self.profile.read_bps;
        let write_s = self.bytes_written() as f64 / self.profile.write_bps;
        let total = read_s + write_s;
        if total.is_finite() {
            Duration::from_secs_f64(total)
        } else {
            Duration::ZERO
        }
    }

    /// Zero the counters (between experiment phases).
    pub fn reset(&self) {
        self.bytes_read.store(0, Ordering::Relaxed);
        self.bytes_written.store(0, Ordering::Relaxed);
        self.read_ops.store(0, Ordering::Relaxed);
        self.write_ops.store(0, Ordering::Relaxed);
    }

    /// Snapshot of the counters, for deltas across a phase.
    pub fn snapshot(&self) -> IoSnapshot {
        IoSnapshot { bytes_read: self.bytes_read(), bytes_written: self.bytes_written() }
    }

    /// Simulated time for the IO performed since `since`.
    pub fn io_time_since(&self, since: &IoSnapshot) -> Duration {
        let read = self.bytes_read().saturating_sub(since.bytes_read);
        let written = self.bytes_written().saturating_sub(since.bytes_written);
        let total = read as f64 / self.profile.read_bps + written as f64 / self.profile.write_bps;
        if total.is_finite() {
            Duration::from_secs_f64(total)
        } else {
            Duration::ZERO
        }
    }
}

/// Point-in-time counter values.
#[derive(Debug, Clone, Copy, Default)]
pub struct IoSnapshot {
    pub bytes_read: u64,
    pub bytes_written: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn io_time_follows_bandwidth() {
        let d = Device::new(DeviceProfile::SATA_SSD);
        d.record_read(550_000_000); // one second of reads
        let t = d.io_time();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9, "{t:?}");
        d.record_write(520_000_000); // plus one second of writes
        assert!((d.io_time().as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn nvme_is_faster_than_sata_for_same_bytes() {
        let sata = Device::new(DeviceProfile::SATA_SSD);
        let nvme = Device::new(DeviceProfile::NVME_SSD);
        for d in [&sata, &nvme] {
            d.record_read(1_000_000_000);
        }
        assert!(nvme.io_time() < sata.io_time());
    }

    #[test]
    fn ram_device_is_free() {
        let d = Device::new(DeviceProfile::RAM);
        d.record_read(u64::MAX / 2);
        assert_eq!(d.io_time(), Duration::ZERO);
    }

    #[test]
    fn snapshot_deltas() {
        let d = Device::new(DeviceProfile::SATA_SSD);
        d.record_read(100);
        let snap = d.snapshot();
        d.record_read(550_000_000);
        let t = d.io_time_since(&snap);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fault_plan_lifecycle_and_counters() {
        use crate::fault::FaultKind;
        let d = Device::new(DeviceProfile::RAM);
        // Unarmed: consults are free and clean.
        assert_eq!(d.fault_read(), Ok(()));
        assert_eq!(d.fault_ops_seen(), 0);
        d.set_fault_plan(FaultPlan::new(9).fail_nth(IoOp::Read, 2, FaultKind::Transient));
        assert_eq!(d.fault_read(), Ok(()));
        assert_eq!(d.fault_read(), Err(StorageError::Transient { op: IoOp::Read }));
        assert_eq!(d.faults_injected(), 1);
        let plan = d.clear_fault_plan().expect("plan was installed");
        assert_eq!(plan.ops_seen(), 2);
        assert_eq!(d.fault_read(), Ok(()), "cleared plan no longer fires");
        d.note_checksum_failure();
        assert_eq!(d.checksum_failures(), 1);
    }

    #[test]
    fn reset_clears_counters() {
        let d = Device::new(DeviceProfile::SATA_SSD);
        d.record_read(123);
        d.record_write(456);
        d.reset();
        assert_eq!(d.bytes_read(), 0);
        assert_eq!(d.bytes_written(), 0);
        assert_eq!(d.io_time(), Duration::ZERO);
    }
}
