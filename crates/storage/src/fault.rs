//! Deterministic fault injection for the simulated device.
//!
//! A [`FaultPlan`] is a seeded script of device misbehavior, installed on a
//! [`Device`](crate::Device) with `set_fault_plan` and consulted immediately
//! before every raw I/O operation. It can:
//!
//! * fail the Nth read/write/rotate of the run (transiently or permanently),
//! * fail a random fraction of all operations transiently (fault storms),
//! * flip one bit of the Nth written buffer (silent corruption — the write
//!   "succeeds" and the damage must be caught by checksums on read),
//! * tear the Nth written buffer (a crash mid-append: a prefix lands on the
//!   device, the operation reports failure),
//! * simulate a hard crash at the Kth I/O operation (`crash_after_ops`):
//!   every later operation fails permanently, which is how the crash-point
//!   sweep harness stops a workload at an arbitrary I/O boundary before
//!   running recovery.
//!
//! Everything is driven by one seeded RNG plus per-class operation counters,
//! so a given `(seed, plan)` pair replays the identical fault sequence.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::error::{IoOp, StorageError};

/// How a scripted one-shot fault manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails; a retry may succeed.
    Transient,
    /// The operation fails; retries keep failing.
    Permanent,
    /// Writes only: one bit of the buffer is flipped *silently* — the write
    /// reports success and the corruption must be detected by checksums.
    FlipBit,
    /// Writes only: only a prefix of the buffer lands on the device and the
    /// operation reports a permanent failure (a crash mid-append).
    TearTail,
}

/// What a consulted write should do to its buffer. `Clean` is the fast path;
/// the other variants carry RNG-derived raw material that
/// [`FileStore`](crate::file::FileStore) maps onto the buffer's actual length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteMutation {
    Clean,
    /// Flip bit `bit_seed % (len * 8)` of the stored buffer.
    FlipBit {
        bit_seed: u64,
    },
    /// Keep only `keep_seed % len` bytes of the buffer, then fail.
    Tear {
        keep_seed: u64,
    },
}

#[derive(Debug, Clone)]
struct Trigger {
    op: IoOp,
    /// 1-based index into that class's operation counter.
    at: u64,
    kind: FaultKind,
    fired: bool,
}

/// A seeded, scripted sequence of device faults. See the module docs.
#[derive(Debug)]
pub struct FaultPlan {
    rng: StdRng,
    triggers: Vec<Trigger>,
    /// Random transient-failure probability per operation, in permille.
    transient_permille: u16,
    /// After this many total operations, every operation fails permanently.
    crash_after_ops: Option<u64>,
    ops_seen: u64,
    reads_seen: u64,
    writes_seen: u64,
    rotates_seen: u64,
}

impl FaultPlan {
    /// An empty plan: injects nothing until configured, but still counts
    /// operations (useful for calibrating a crash-point sweep).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            rng: StdRng::seed_from_u64(seed),
            triggers: Vec::new(),
            transient_permille: 0,
            crash_after_ops: None,
            ops_seen: 0,
            reads_seen: 0,
            writes_seen: 0,
            rotates_seen: 0,
        }
    }

    /// Script the `n`th operation of class `op` (1-based) to fault as
    /// `kind`. Each trigger fires at most once.
    pub fn fail_nth(mut self, op: IoOp, n: u64, kind: FaultKind) -> Self {
        assert!(n >= 1, "operation indices are 1-based");
        self.triggers.push(Trigger { op, at: n, kind, fired: false });
        self
    }

    /// Silently flip one bit of the `n`th written buffer.
    pub fn flip_bit_in_nth_write(self, n: u64) -> Self {
        self.fail_nth(IoOp::Write, n, FaultKind::FlipBit)
    }

    /// Tear the `n`th written buffer (prefix lands, operation fails).
    pub fn tear_nth_write(self, n: u64) -> Self {
        self.fail_nth(IoOp::Write, n, FaultKind::TearTail)
    }

    /// Fail each operation transiently with probability `permille`/1000.
    pub fn with_transient_rate_permille(mut self, permille: u16) -> Self {
        assert!(permille <= 1000);
        self.transient_permille = permille;
        self
    }

    /// Simulate a crash at the `n`th I/O operation: operations 1..=n run
    /// normally (and may still hit other scripted faults), every operation
    /// after them fails permanently.
    pub fn with_crash_after_ops(mut self, n: u64) -> Self {
        self.crash_after_ops = Some(n);
        self
    }

    /// Total operations consulted so far (all classes).
    pub fn ops_seen(&self) -> u64 {
        self.ops_seen
    }

    /// Consult the plan for the next operation of class `op`. `Ok(Clean)` is
    /// a normal operation; `Ok(FlipBit/Tear)` only occur for writes.
    pub(crate) fn on_op(&mut self, op: IoOp) -> Result<WriteMutation, StorageError> {
        self.ops_seen += 1;
        let class_count = match op {
            IoOp::Read => {
                self.reads_seen += 1;
                self.reads_seen
            }
            IoOp::Write => {
                self.writes_seen += 1;
                self.writes_seen
            }
            IoOp::Rotate => {
                self.rotates_seen += 1;
                self.rotates_seen
            }
        };
        if let Some(limit) = self.crash_after_ops {
            if self.ops_seen > limit {
                return Err(StorageError::Permanent { op });
            }
        }
        for t in &mut self.triggers {
            if !t.fired && t.op == op && t.at == class_count {
                t.fired = true;
                return match t.kind {
                    FaultKind::Transient => Err(StorageError::Transient { op }),
                    FaultKind::Permanent => Err(StorageError::Permanent { op }),
                    FaultKind::FlipBit => Ok(WriteMutation::FlipBit { bit_seed: self.rng.gen() }),
                    FaultKind::TearTail => Ok(WriteMutation::Tear { keep_seed: self.rng.gen() }),
                };
            }
        }
        if self.transient_permille > 0
            && self.rng.gen_range(0u32..1000) < u32::from(self.transient_permille)
        {
            return Err(StorageError::Transient { op });
        }
        Ok(WriteMutation::Clean)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_op_triggers_once_per_class() {
        let mut p = FaultPlan::new(1).fail_nth(IoOp::Read, 2, FaultKind::Transient).fail_nth(
            IoOp::Write,
            1,
            FaultKind::Permanent,
        );
        assert_eq!(p.on_op(IoOp::Read), Ok(WriteMutation::Clean));
        assert_eq!(p.on_op(IoOp::Read), Err(StorageError::Transient { op: IoOp::Read }));
        assert_eq!(p.on_op(IoOp::Read), Ok(WriteMutation::Clean), "one-shot");
        assert_eq!(p.on_op(IoOp::Write), Err(StorageError::Permanent { op: IoOp::Write }));
        assert_eq!(p.on_op(IoOp::Write), Ok(WriteMutation::Clean));
        assert_eq!(p.ops_seen(), 5);
    }

    #[test]
    fn crash_after_ops_fails_everything_later() {
        let mut p = FaultPlan::new(7).with_crash_after_ops(3);
        for _ in 0..3 {
            assert_eq!(p.on_op(IoOp::Write), Ok(WriteMutation::Clean));
        }
        for op in [IoOp::Read, IoOp::Write, IoOp::Rotate] {
            assert_eq!(p.on_op(op), Err(StorageError::Permanent { op }));
        }
    }

    #[test]
    fn transient_rate_is_roughly_calibrated_and_deterministic() {
        let run = |seed| {
            let mut p = FaultPlan::new(seed).with_transient_rate_permille(100);
            (0..10_000).filter(|_| p.on_op(IoOp::Read).is_err()).count()
        };
        let failures = run(42);
        assert!((500..1500).contains(&failures), "~10% of 10k, got {failures}");
        assert_eq!(failures, run(42), "same seed, same storm");
    }

    #[test]
    fn mutations_reach_only_writes() {
        let mut p = FaultPlan::new(3).flip_bit_in_nth_write(1).tear_nth_write(2);
        assert!(matches!(p.on_op(IoOp::Write), Ok(WriteMutation::FlipBit { .. })));
        assert!(matches!(p.on_op(IoOp::Write), Ok(WriteMutation::Tear { .. })));
        assert_eq!(p.on_op(IoOp::Read), Ok(WriteMutation::Clean));
    }
}
