//! The MySQL *Memory* storage engine model.
//!
//! Paper §4.1.1: "The experiment with MySQL Memory Engine yielded a
//! throughput of ≈ 0.15 TPS for the different workloads. This is because
//! the MySQL Memory Engine doesn't support transactions and only supports
//! table level locks."
//!
//! [`MemoryEngine`] models exactly those two properties: rows live in
//! memory (reads are fast), but every statement batch runs under a single
//! table lock serialized in virtual time ([`tiera_sim::SerialResource`]),
//! and there is no journal and no transactional isolation — a "transaction"
//! is just a locked batch. Under concurrent closed-loop clients the lock
//! queue grows with the thread count, collapsing throughput to that of one
//! slow serial executor.

use tiera_sim::{SerialResource, SimDuration, SimTime};
use tiera_support::sync::{rank, Mutex};

use crate::engine::{DbError, Op, TxnReceipt};

/// In-memory table with a global table lock (no transactions).
pub struct MemoryEngine {
    rows: Mutex<Vec<Vec<u8>>>,
    row_size: usize,
    table_lock: SerialResource,
    /// Per-statement execution cost. The Memory engine performs full table
    /// locking and (for sysbench's mixed statements) table scans, so this
    /// is far higher than the page engines' per-op CPU.
    stmt_cost: SimDuration,
}

impl MemoryEngine {
    /// Creates a table of `rows` rows of `row_size` bytes.
    pub fn new(rows: u64, row_size: usize) -> Self {
        let table = (0..rows)
            .map(|r| (0..row_size).map(|i| ((r as usize * 31 + i * 7) % 251) as u8).collect())
            .collect();
        Self {
            rows: Mutex::named("db.rows", rank::DB_ROWS, table),
            row_size,
            table_lock: SerialResource::new(),
            // Table-level locking forces scan-ish costs; 8 concurrent
            // clients collapse to around-or-under 1 TPS. The paper-scale
            // experiment raises this to a full-table-scan cost via
            // [`set_stmt_cost`](Self::set_stmt_cost).
            stmt_cost: SimDuration::from_millis(60),
        }
    }

    /// Overrides the per-statement cost (e.g. a full scan of a large table).
    pub fn set_stmt_cost(&mut self, cost: SimDuration) {
        self.stmt_cost = cost;
    }

    /// Executes a statement batch under the table lock.
    ///
    /// No transactional semantics: a failed row id aborts the batch but
    /// earlier updates remain applied (the Memory engine has no rollback).
    pub fn run_batch(&self, ops: &[Op], now: SimTime) -> Result<TxnReceipt, DbError> {
        let hold = SimDuration::from_nanos(self.stmt_cost.as_nanos() * ops.len() as u64);
        let grant = self.table_lock.acquire(now, hold);
        let mut rows = self.rows.lock();
        for op in ops {
            let (Op::Select(id) | Op::Update(id)) = op;
            let idx = *id as usize;
            if idx >= rows.len() {
                return Err(DbError::NoSuchRow(*id));
            }
            if let Op::Update(_) = op {
                for b in rows[idx].iter_mut() {
                    *b = b.wrapping_add(1) ^ 0x5A;
                }
            }
        }
        Ok(TxnReceipt {
            latency: grant.latency_from(now),
            cache_hits: ops.len() as u32,
            storage_reads: 0,
        })
    }

    /// Reads a row (for verification).
    pub fn read_row(&self, row: u64) -> Result<Vec<u8>, DbError> {
        self.rows.lock().get(row as usize).cloned().ok_or(DbError::NoSuchRow(row))
    }

    /// Row width in bytes.
    pub fn row_size(&self) -> usize {
        self.row_size
    }
}

impl std::fmt::Debug for MemoryEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemoryEngine").field("rows", &self.rows.lock().len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_apply_without_rollback() {
        let eng = MemoryEngine::new(10, 16);
        let before = eng.read_row(3).unwrap();
        eng.run_batch(&[Op::Update(3)], SimTime::ZERO).unwrap();
        assert_ne!(eng.read_row(3).unwrap(), before);
        // A failing batch leaves earlier updates applied (no transactions).
        let mid = eng.read_row(3).unwrap();
        let err = eng.run_batch(&[Op::Update(3), Op::Select(99)], SimTime::ZERO);
        assert!(err.is_err());
        assert_ne!(eng.read_row(3).unwrap(), mid, "no rollback happened");
    }

    #[test]
    fn table_lock_serializes_concurrent_batches() {
        let eng = MemoryEngine::new(100, 16);
        // Eight clients issue a 10-statement batch at the same instant.
        let mut latencies = Vec::new();
        for _ in 0..8 {
            let r = eng.run_batch(&[Op::Select(1); 10], SimTime::ZERO).unwrap();
            latencies.push(r.latency);
        }
        // Each batch holds the lock for 600 ms; the 8th waits ~4.2 s.
        assert!(latencies[0] < latencies[7]);
        assert!(latencies[7].as_secs_f64() > 4.0, "queueing collapse: {:?}", latencies[7]);
        // Aggregate throughput ≈ 8 txns / 4.8 s < 2 TPS.
        let total = latencies.iter().max().unwrap().as_secs_f64();
        assert!(8.0 / total < 2.0);
    }

    #[test]
    fn missing_row_rejected() {
        let eng = MemoryEngine::new(5, 8);
        assert!(matches!(
            eng.run_batch(&[Op::Select(5)], SimTime::ZERO),
            Err(DbError::NoSuchRow(5))
        ));
    }
}
